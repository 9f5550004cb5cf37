// chaos_campaign — runs deterministic chaos campaigns against the simulated
// FTMP fleet (src/ftmp/chaos.hpp, docs/CHAOS.md).
//
//   $ ./chaos_campaign --seed 42                 # one campaign
//   $ ./chaos_campaign --seeds 1,2,3             # explicit list
//   $ ./chaos_campaign --count 25 --start-seed 1 # a sweep
//   $ ./chaos_campaign --procs 4 --spares 4 --duration 120000 --faults 0
//                                                # the churn soak profile
//   $ ./chaos_campaign --seed 42 --repeat 2      # determinism self-check
//   $ ./chaos_campaign --seed 42 --trace t.log   # record a replayable trace
//
// Every campaign is a pure function of its seed: on a violation the tool
// prints the seed, the generated fault schedule, and the exact command that
// reproduces the run bit-for-bit.
//
// Exit status: 0 = every campaign held all invariants, 1 = at least one
// violation / non-convergence / determinism mismatch, 2 = usage error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ftmp/chaos.hpp"

using namespace ftcorba;
using namespace ftcorba::ftmp;

namespace {

void print_usage() {
  std::fprintf(stderr,
               "usage: chaos_campaign [options]\n"
               "\n"
               "seed selection (default: --seed 1):\n"
               "  --seed S          run the single seed S\n"
               "  --seeds a,b,c     run an explicit seed list\n"
               "  --count N         run N consecutive seeds\n"
               "  --start-seed S    first seed for --count (default 1)\n"
               "\n"
               "campaign shape:\n"
               "  --procs N         founding members P1..Pn (default 6)\n"
               "  --duration MS     simulated campaign length in ms (default 30000)\n"
               "  --faults N        scheduled fault count (default 10)\n"
               "  --spares N        spare processors outside the group at the\n"
               "                    start; adds planned joins, leaves, spare\n"
               "                    crash-restarts and rebinds (default 0)\n"
               "  --batch BYTES     force egress batching on with this datagram\n"
               "                    byte budget (default 0 = batching off)\n"
               "  --ordering MODE   total-ordering engine: lamport (default),\n"
               "                    lamport-paper (the paper's rule, no prompt\n"
               "                    acks) or llft (leader-stamped slots,\n"
               "                    docs/ORDERING.md)\n"
               "\n"
               "output / checking:\n"
               "  --repeat K        run each seed K times and require identical\n"
               "                    digests (determinism self-check)\n"
               "  --trace FILE      record the campaign trace (single seed only;\n"
               "                    replay offline with ftmp_inspect --invariants)\n"
               "  --json FILE       write per-seed results as a JSON array\n"
               "  --schedule        print each seed's fault schedule up front\n"
               "  -v, --verbose     narrate fault applications and restarts\n"
               "  -q, --quiet       only print failures and the final summary\n"
               "  -h, --help        show this help\n"
               "\n"
               "exit status: 0 all green, 1 violation/divergence, 2 usage.\n");
}

struct Options {
  std::vector<std::uint64_t> seeds;
  std::uint64_t count = 0;
  std::uint64_t start_seed = 1;
  chaos::ScheduleParams params;
  std::size_t batch_max_datagram_bytes = 0;
  OrderingMode ordering_mode = OrderingMode::kLamport;
  std::size_t repeat = 1;
  std::string trace_path;
  std::string json_path;
  bool print_schedule = false;
  bool verbose = false;
  bool quiet = false;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end && *end == '\0' && end != s;
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t n = 0;
    if (arg == "--seed") {
      const char* v = value();
      if (!v || !parse_u64(v, n)) return false;
      opt.seeds.push_back(n);
    } else if (arg == "--seeds") {
      const char* v = value();
      if (!v) return false;
      std::string list = v;
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!parse_u64(tok.c_str(), n)) return false;
        opt.seeds.push_back(n);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--count") {
      const char* v = value();
      if (!v || !parse_u64(v, opt.count)) return false;
    } else if (arg == "--start-seed") {
      const char* v = value();
      if (!v || !parse_u64(v, opt.start_seed)) return false;
    } else if (arg == "--procs") {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n < 3 || n > 64) return false;
      opt.params.processors = std::uint32_t(n);
    } else if (arg == "--duration") {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return false;
      opt.params.duration = Duration(n) * kMillisecond;
    } else if (arg == "--faults") {
      const char* v = value();
      if (!v || !parse_u64(v, n)) return false;
      opt.params.faults = std::size_t(n);
    } else if (arg == "--spares") {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n > 64) return false;
      opt.params.spares = std::uint32_t(n);
    } else if (arg == "--batch") {
      const char* v = value();
      if (!v || !parse_u64(v, n)) return false;
      opt.batch_max_datagram_bytes = std::size_t(n);
    } else if (arg == "--ordering") {
      const char* v = value();
      if (!v || !parse_ordering_mode(v, opt.ordering_mode)) return false;
    } else if (arg == "--repeat") {
      const char* v = value();
      if (!v || !parse_u64(v, n) || n == 0) return false;
      opt.repeat = std::size_t(n);
    } else if (arg == "--trace") {
      const char* v = value();
      if (!v) return false;
      opt.trace_path = v;
    } else if (arg == "--json") {
      const char* v = value();
      if (!v) return false;
      opt.json_path = v;
    } else if (arg == "--schedule") {
      opt.print_schedule = true;
    } else if (arg == "-v" || arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "-q" || arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      print_usage();
      std::exit(0);
    } else {
      return false;
    }
  }
  if (opt.count > 0) {
    for (std::uint64_t s = 0; s < opt.count; ++s) {
      opt.seeds.push_back(opt.start_seed + s);
    }
  }
  if (opt.seeds.empty()) opt.seeds.push_back(1);
  if (!opt.trace_path.empty() && (opt.seeds.size() > 1 || opt.repeat > 1)) {
    std::fprintf(stderr, "chaos_campaign: --trace needs a single seed run\n");
    return false;
  }
  return true;
}

std::string repro_command(const Options& opt, std::uint64_t seed) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "chaos_campaign --seed %" PRIu64 " --procs %u --duration %" PRIu64
                " --faults %zu --ordering %s --trace chaos_%" PRIu64 ".trace -v",
                seed, opt.params.processors,
                std::uint64_t(opt.params.duration / kMillisecond),
                opt.params.faults, to_string(opt.ordering_mode), seed);
  std::string cmd = buf;
  if (opt.params.spares > 0) cmd += " --spares " + std::to_string(opt.params.spares);
  return cmd;
}

void print_failure(const Options& opt, const chaos::CampaignResult& r) {
  std::printf("!! seed %" PRIu64 " FAILED: %zu violation(s)%s%s%s\n", r.seed,
              r.violations.size(), r.converged ? "" : ", fleet did not reconverge",
              r.log_replay_ok ? "" : ", crash-restart log replay mismatch",
              r.state_converged ? "" : ", state digests did not converge");
  std::printf("%s", r.schedule.to_string().c_str());
  for (const chaos::Violation& v : r.violations) {
    std::printf("  [%8.0fms] %s at %s: %s\n", double(v.at) / kMillisecond,
                chaos::to_string(v.kind), to_string(v.processor).c_str(),
                v.detail.c_str());
  }
  std::printf("  reproduce: %s\n", repro_command(opt, r.seed).c_str());
}

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    print_usage();
    return 2;
  }

  std::vector<chaos::CampaignResult> results;
  std::size_t divergent = 0;
  for (std::uint64_t seed : opt.seeds) {
    chaos::CampaignConfig cfg;
    cfg.seed = seed;
    cfg.params = opt.params;
    cfg.trace_path = opt.trace_path;
    cfg.verbose = opt.verbose;
    cfg.batch_max_datagram_bytes = opt.batch_max_datagram_bytes;
    cfg.ordering_mode = opt.ordering_mode;
    if (opt.print_schedule) {
      std::printf("%s", chaos::generate_schedule(seed, opt.params).to_string().c_str());
    }

    chaos::CampaignResult r = chaos::run_campaign(cfg);
    bool deterministic = true;
    for (std::size_t k = 1; k < opt.repeat; ++k) {
      const chaos::CampaignResult again = chaos::run_campaign(cfg);
      if (again.digest != r.digest) {
        deterministic = false;
        ++divergent;
        std::printf("!! seed %" PRIu64
                    " DIVERGED between runs: digest %016" PRIx64 " vs %016" PRIx64
                    " (run %zu)\n",
                    seed, r.digest, again.digest, k + 1);
        std::printf("  reproduce: %s --repeat %zu\n",
                    repro_command(opt, seed).c_str(), opt.repeat);
        break;
      }
    }

    if (!r.ok()) {
      print_failure(opt, r);
    } else if (!opt.quiet) {
      std::string transfer_detail;
      if (r.state_resumes > 0) {
        transfer_detail += " resumed=" + std::to_string(r.state_resumes);
      }
      if (r.state_restarts > 0) {
        transfer_detail += " restarted=" + std::to_string(r.state_restarts);
      }
      if (opt.params.spares > 0) {
        transfer_detail += " joins=" + std::to_string(r.joins) +
                           " leaves=" + std::to_string(r.leaves) +
                           " rebinds=" + std::to_string(r.rebinds);
      }
      std::printf("seed %-6" PRIu64 " ok  digest=%016" PRIx64
                  "  sent=%" PRIu64 " delivered=%" PRIu64 " faults=%" PRIu64
                  " crashes=%" PRIu64 " rejoins=%" PRIu64 " transfers=%" PRIu64
                  "%s%s\n",
                  r.seed, r.digest, r.messages_sent, r.deliveries,
                  r.faults_applied, r.crashes, r.rejoins, r.state_transfers,
                  transfer_detail.c_str(),
                  deterministic && opt.repeat > 1 ? "  (deterministic)" : "");
    }
    results.push_back(std::move(r));
  }

  std::size_t failed = divergent;
  for (const chaos::CampaignResult& r : results) failed += r.ok() ? 0 : 1;

  if (!opt.json_path.empty()) {
    std::FILE* out = std::fopen(opt.json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "chaos_campaign: cannot write %s\n", opt.json_path.c_str());
      return 2;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const chaos::CampaignResult& r = results[i];
      std::string violations;
      for (std::size_t v = 0; v < r.violations.size(); ++v) {
        if (v) violations += ", ";
        violations += "\"";
        std::string detail = std::string(chaos::to_string(r.violations[v].kind)) +
                             ": " + r.violations[v].detail;
        json_escape_into(violations, detail);
        violations += "\"";
      }
      std::fprintf(out,
                   "  {\"seed\": %" PRIu64 ", \"ok\": %s, \"ordering\": \"%s\""
                   ", \"digest\": \"%016" PRIx64
                   "\", \"procs\": %u, \"spares\": %u, \"duration_ms\": %" PRIu64
                   ", \"faults_scheduled\": %zu, \"faults_applied\": %" PRIu64
                   ", \"messages_sent\": %" PRIu64 ", \"deliveries\": %" PRIu64
                   ", \"crashes\": %" PRIu64 ", \"restarts\": %" PRIu64
                   ", \"rejoins\": %" PRIu64 ", \"joins\": %" PRIu64
                   ", \"leaves\": %" PRIu64 ", \"rebinds\": %" PRIu64
                   ", \"converged\": %s"
                   ", \"log_replay_ok\": %s, \"state_converged\": %s"
                   ", \"state_transfers\": %" PRIu64 ", \"state_resumes\": %" PRIu64
                   ", \"state_restarts\": %" PRIu64
                   ", \"state_digest_mismatches\": %" PRIu64
                   ", \"violations\": [%s]}%s\n",
                   r.seed, r.ok() ? "true" : "false",
                   to_string(opt.ordering_mode), r.digest,
                   opt.params.processors, opt.params.spares,
                   std::uint64_t(opt.params.duration / kMillisecond),
                   r.schedule.faults.size(), r.faults_applied, r.messages_sent,
                   r.deliveries, r.crashes, r.restarts, r.rejoins, r.joins,
                   r.leaves, r.rebinds,
                   r.converged ? "true" : "false",
                   r.log_replay_ok ? "true" : "false",
                   r.state_converged ? "true" : "false", r.state_transfers,
                   r.state_resumes, r.state_restarts, r.state_digest_mismatches,
                   violations.c_str(), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
  }

  if (opt.seeds.size() > 1 || opt.quiet) {
    std::printf("%zu/%zu seeds green\n", opt.seeds.size() - failed, opt.seeds.size());
  }
  return failed == 0 ? 0 : 1;
}
