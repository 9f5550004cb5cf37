// ftmp_inspect — wire-debugging utility: decodes a hex-encoded FTMP
// datagram (and any GIOP message nested in a Regular payload) to a
// human-readable description.
//
//   $ ./ftmp_inspect 46544d50...            # hex from a packet capture
//   $ echo 46544d50... | ./ftmp_inspect     # or on stdin (one per line)
//   $ ./ftmp_inspect --metrics=prom <hex>   # append a metrics dump
//   $ ./ftmp_inspect --invariants t.trace   # replay a chaos campaign trace
//
// Exit status: 0 = everything decoded, 1 = at least one datagram failed to
// decode (including a GIOP body nested in a Regular payload), 2 = usage /
// non-hex input. With --invariants: 0 = every replayable invariant held,
// 1 = at least one violation, 2 = unreadable/malformed trace.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "ftmp/chaos.hpp"
#include "ftmp/fragment.hpp"
#include "ftmp/messages.hpp"
#include "ftmp/wire.hpp"
#include "giop/messages.hpp"

using namespace ftcorba;

namespace {

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool parse_hex(const std::string& hex, Bytes& out) {
  std::string clean;
  for (char c : hex) {
    if (!isspace(static_cast<unsigned char>(c))) clean.push_back(c);
  }
  if (clean.size() % 2 != 0) return false;
  out.clear();
  for (std::size_t i = 0; i < clean.size(); i += 2) {
    const int hi = hex_value(clean[i]);
    const int lo = hex_value(clean[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}

void print_connection(const ConnectionId& c) {
  std::printf("    connection       %s\n", to_string(c).c_str());
}

void print_members(const char* label, const std::vector<ProcessorId>& members) {
  std::printf("    %-16s {", label);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", to_string(members[i]).c_str());
  }
  std::printf("}\n");
}

/// Returns false if the payload claimed to be GIOP but failed to decode.
bool print_giop(BytesView payload) {
  if (ftmp::looks_like_fragment(payload)) {
    std::printf("  payload: FTMP fragment chunk (%zu bytes incl. header)\n",
                payload.size());
    return true;
  }
  if (!giop::looks_like_giop(payload)) {
    std::printf("  payload: %zu bytes (not GIOP)\n", payload.size());
    return true;
  }
  try {
    const giop::GiopMessage msg = giop::decode(payload);
    std::printf("  GIOP %u.%u %s, body %u bytes\n", msg.header.major,
                msg.header.minor, giop::to_string(msg.header.type),
                msg.header.message_size);
    if (const auto* request = std::get_if<giop::Request>(&msg.body)) {
      std::printf("    request id       %u%s\n", request->request_id,
                  request->response_expected ? "" : " (oneway)");
      std::printf("    object key       \"%s\"\n",
                  std::string(request->object_key.begin(), request->object_key.end())
                      .c_str());
      std::printf("    operation        \"%s\"\n", request->operation.c_str());
      std::printf("    arguments        %zu bytes\n", request->body.size());
    } else if (const auto* reply = std::get_if<giop::Reply>(&msg.body)) {
      static const char* kStatus[] = {"NO_EXCEPTION", "USER_EXCEPTION",
                                      "SYSTEM_EXCEPTION", "LOCATION_FORWARD"};
      std::printf("    request id       %u\n", reply->request_id);
      std::printf("    status           %s\n",
                  kStatus[static_cast<std::uint32_t>(reply->status)]);
      std::printf("    results          %zu bytes\n", reply->body.size());
    }
  } catch (const giop::CdrError& e) {
    std::printf("  GIOP decode failed: %s\n", e.what());
    return false;
  }
  return true;
}

int inspect_one(const Bytes& datagram) {
  if (!ftmp::looks_like_ftmp(datagram)) {
    std::printf("not an FTMP datagram (magic mismatch)\n");
    return 1;
  }
  ftmp::Message msg;
  try {
    msg = ftmp::decode_message(datagram);
  } catch (const CodecError& e) {
    std::printf("FTMP decode failed: %s\n", e.what());
    return 1;
  }
  const ftmp::Header& h = msg.header;
  std::printf("FTMP %u.%u %s, %u bytes, %s-endian%s\n", h.version.major,
              h.version.minor, ftmp::to_string(h.type), h.message_size,
              h.byte_order == ByteOrder::kLittle ? "little" : "big",
              h.retransmission ? " [retransmission]" : "");
  std::printf("  source %s -> group %s\n", to_string(h.source).c_str(),
              to_string(h.destination_group).c_str());
  std::printf("  seq %llu  ts %llu  ack-ts %llu\n",
              static_cast<unsigned long long>(h.sequence_number),
              static_cast<unsigned long long>(h.message_timestamp),
              static_cast<unsigned long long>(h.ack_timestamp));
  // The sender's own view of its stability lag: everything it originated
  // with ts <= ack-ts is group-wide stable, so ts - ack-ts is the span this
  // datagram still pins in every retransmission store. This is the quantity
  // the flow-control window bounds (docs/FLOW.md) — a span that keeps
  // growing across a capture is the slow-receiver signature.
  if (h.message_timestamp >= h.ack_timestamp) {
    std::printf("  unstable span %llu ts  (message ts - ack ts; what the flow window bounds)\n",
                static_cast<unsigned long long>(h.message_timestamp - h.ack_timestamp));
  }

  if (const auto* regular = std::get_if<ftmp::RegularBody>(&msg.body)) {
    print_connection(regular->connection);
    std::printf("    request num      %llu\n",
                static_cast<unsigned long long>(regular->request_num));
    if (!print_giop(regular->giop_message)) {
      return 1;
    }
  } else if (const auto* nack = std::get_if<ftmp::RetransmitRequestBody>(&msg.body)) {
    std::printf("    missing from %s seq [%llu, %llu]\n",
                to_string(nack->processor).c_str(),
                static_cast<unsigned long long>(nack->start_seq),
                static_cast<unsigned long long>(nack->stop_seq));
  } else if (const auto* cr = std::get_if<ftmp::ConnectRequestBody>(&msg.body)) {
    print_connection(cr->connection);
    print_members("client procs", cr->client_processors);
  } else if (const auto* connect = std::get_if<ftmp::ConnectBody>(&msg.body)) {
    print_connection(connect->connection);
    std::printf("    processor group  %s\n", to_string(connect->processor_group).c_str());
    std::printf("    mcast address    %u\n", connect->multicast_address.raw());
    std::printf("    membership ts    %llu\n",
                static_cast<unsigned long long>(connect->current_membership.timestamp));
    print_members("membership", connect->current_membership.members);
  } else if (const auto* add = std::get_if<ftmp::AddProcessorBody>(&msg.body)) {
    std::printf("    new member       %s\n", to_string(add->new_member).c_str());
    print_members("membership", add->current_membership.members);
    for (const auto& ss : add->current_seqs) {
      std::printf("    ordered up to    %s: %llu\n", to_string(ss.processor).c_str(),
                  static_cast<unsigned long long>(ss.seq));
    }
  } else if (const auto* remove = std::get_if<ftmp::RemoveProcessorBody>(&msg.body)) {
    std::printf("    member to remove %s\n", to_string(remove->member_to_remove).c_str());
  } else if (const auto* suspect = std::get_if<ftmp::SuspectBody>(&msg.body)) {
    print_members("suspects", suspect->suspects);
    print_members("membership", suspect->current_membership.members);
  } else if (const auto* membership = std::get_if<ftmp::MembershipBody>(&msg.body)) {
    print_members("proposal", membership->new_membership);
    print_members("old members", membership->current_membership.members);
    for (const auto& ss : membership->current_seqs) {
      std::printf("    received up to   %s: %llu\n", to_string(ss.processor).c_str(),
                  static_cast<unsigned long long>(ss.seq));
    }
  } else if (const auto* sreq = std::get_if<ftmp::StateRequestBody>(&msg.body)) {
    std::printf("    joiner           %s\n", to_string(sreq->joiner).c_str());
    std::printf("    view ts          %llu\n",
                static_cast<unsigned long long>(sreq->view_ts));
    std::printf("    next chunk       %u  (cumulative ack / resume offset)\n",
                sreq->next_chunk);
  } else if (const auto* chunk = std::get_if<ftmp::StateChunkBody>(&msg.body)) {
    std::printf("    joiner           %s\n", to_string(chunk->joiner).c_str());
    std::printf("    view ts          %llu\n",
                static_cast<unsigned long long>(chunk->view_ts));
    std::printf("    chunk            %u/%u, %zu payload bytes\n",
                chunk->chunk_seq + 1, chunk->total_chunks, chunk->payload.size());
    std::printf("    snapshot digest  %016llx\n",
                static_cast<unsigned long long>(chunk->snapshot_digest));
    std::printf("    cut digest       %016llx\n",
                static_cast<unsigned long long>(chunk->cut_digest));
    for (const auto& ss : chunk->cut_seqs) {
      std::printf("    cut              %s: %llu\n", to_string(ss.processor).c_str(),
                  static_cast<unsigned long long>(ss.seq));
    }
  } else if (const auto* oi = std::get_if<ftmp::OrderInfoBody>(&msg.body)) {
    std::printf("    view ts          %llu  (grant epoch)\n",
                static_cast<unsigned long long>(oi->view_ts));
    for (const auto& ss : oi->floors) {
      std::printf("    floor            %s: %llu  (delivered-floor advisory)\n",
                  to_string(ss.processor).c_str(),
                  static_cast<unsigned long long>(ss.seq));
    }
    for (const auto& ss : oi->grants) {
      std::printf("    grant            %s: %llu\n",
                  to_string(ss.processor).c_str(),
                  static_cast<unsigned long long>(ss.seq));
    }
  } else if (const auto* dig = std::get_if<ftmp::StateDigestBody>(&msg.body)) {
    std::printf("    fingerprint      %016llx  (position: hashed applied watermarks)\n",
                static_cast<unsigned long long>(dig->fingerprint));
    std::printf("    rolling digest   %016llx\n",
                static_cast<unsigned long long>(dig->digest));
  }
  return 0;
}

int inspect(const Bytes& datagram) {
  auto inspected = metrics::counter("inspect_datagrams_total",
                                    "Datagrams fed to ftmp_inspect",
                                    "datagrams", "tools");
  auto malformed = metrics::counter("inspect_malformed_total",
                                    "Datagrams ftmp_inspect failed to decode",
                                    "datagrams", "tools");
  inspected.add();
  // A batch ("FTMB", docs/WIRE.md §5) unwraps to length-delimited complete
  // FTMP messages; decode each sub-frame exactly as a standalone datagram.
  if (ftmp::looks_like_ftmp_batch(datagram)) {
    ftmp::BatchParser parser(BytesView(datagram.data(), datagram.size()));
    std::printf("FTMB batch v%u, %u sub-frames, %zu bytes\n",
                unsigned(datagram[ftmp::kBatchVersionOffset]),
                parser.declared_count(), datagram.size());
    int rc = 0;
    std::size_t index = 0;
    while (auto sf = parser.next()) {
      std::printf("  -- sub-frame %zu/%u, %zu bytes --\n", ++index,
                  parser.declared_count(), sf->length);
      Bytes frame(datagram.begin() + static_cast<std::ptrdiff_t>(sf->offset),
                  datagram.begin() +
                      static_cast<std::ptrdiff_t>(sf->offset + sf->length));
      if (inspect_one(frame) != 0) {
        malformed.add();
        rc = 1;
      }
    }
    if (!parser.ok()) {
      std::printf("malformed batch envelope: %s\n", parser.error().c_str());
      malformed.add();
      return 1;
    }
    return rc;
  }
  const int rc = inspect_one(datagram);
  if (rc != 0) malformed.add();
  return rc;
}

/// Offline invariant replay of a chaos campaign trace (docs/CHAOS.md):
/// re-runs the replayable checkers — total order, view agreement, no
/// duplicate/skipped delivery, state-digest convergence — over the
/// recorded D/V/R/S records, with the same verdicts the live campaign
/// produced.
int replay_invariants(const std::string& path) {
  const ftmp::chaos::TraceReplay r = ftmp::chaos::replay_trace_file(path);
  if (!r.parsed) {
    std::fprintf(stderr, "ftmp_inspect: %s: %s\n", path.c_str(),
                 r.parse_error.empty() ? "unreadable trace" : r.parse_error.c_str());
    return 2;
  }
  std::printf("chaos trace %s: seed %llu, ordering %s, %llu records replayed\n",
              path.c_str(), static_cast<unsigned long long>(r.run.seed),
              ftmp::to_string(r.run.ordering_mode),
              static_cast<unsigned long long>(r.records));
  for (const ftmp::chaos::Violation& v : r.violations) {
    std::printf("  [%8.0fms] %s at %s: %s\n", double(v.at) / kMillisecond,
                ftmp::chaos::to_string(v.kind), to_string(v.processor).c_str(),
                v.detail.c_str());
  }
  if (r.violations.empty()) {
    std::printf("  replayable invariants HOLD (total order, view agreement, "
                "dup/skip, state-digest convergence)\n");
    return 0;
  }
  if (r.shape_recorded) {
    std::printf("  %zu violation(s); reproduce the run live with:\n    %s\n",
                r.violations.size(), ftmp::chaos::repro_command(r.run).c_str());
  } else {
    std::printf("  %zu violation(s); the trace header records only the seed and the\n"
                "  ordering, not the run's shape (--procs, --duration, --faults,\n"
                "  --spares, --batch): reproduce it with\n"
                "    chaos_campaign --seed %llu --ordering %s -v\n"
                "  plus the options of the run that wrote the trace\n",
                r.violations.size(), static_cast<unsigned long long>(r.run.seed),
                ftmp::to_string(r.run.ordering_mode));
  }
  return 1;
}

}  // namespace

void print_usage() {
  std::fprintf(stderr,
               "usage: ftmp_inspect [--metrics=prom|json] <hex-datagram>\n"
               "       (or hex datagrams on stdin, one per line)\n"
               "       ftmp_inspect --invariants <trace-file>\n"
               "\n"
               "Decodes hex-encoded FTMP datagrams (and nested GIOP bodies) to a\n"
               "human-readable description. Batch (\"FTMB\") datagrams are\n"
               "unwrapped and each sub-frame decoded in place. Each datagram also reports its\n"
               "unstable span (message ts - ack ts): the stability lag the\n"
               "flow-control send window bounds (docs/FLOW.md).\n"
               "\n"
               "options:\n"
               "  --invariants F   instead of decoding datagrams, replay the chaos\n"
               "                   campaign trace F (chaos_campaign --trace) through\n"
               "                   the offline invariant checkers: total order, view\n"
               "                   agreement, no duplicate/skipped delivery, and\n"
               "                   state-digest convergence (v2 traces). Exit 0 =\n"
               "                   all hold, 1 = violations, 2 = bad trace. See\n"
               "                   docs/CHAOS.md.\n"
               "  --metrics=prom   after decoding, dump this process's metrics\n"
               "                   registry in Prometheus text format on stdout\n"
               "                   (inspect_datagrams_total / inspect_malformed_total\n"
               "                   count this run; see docs/METRICS.md)\n"
               "  --metrics=json   same registry as a single JSON object\n"
               "  -h, --help       show this help\n"
               "\n"
               "exit status: 0 all decoded, 1 at least one decode failed, 2 usage\n"
               "or non-hex input.\n");
}

int main(int argc, char** argv) {
  std::string metrics_format;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--invariants") {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      return replay_invariants(argv[i + 1]);
    }
    if (arg.rfind("--metrics=", 0) == 0) {
      metrics_format = arg.substr(std::strlen("--metrics="));
      if (metrics_format != "prom" && metrics_format != "json") {
        print_usage();
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      // Skip blank lines so `cat capture.hex | ftmp_inspect` is forgiving.
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        inputs.push_back(line);
      }
    }
  }

  int worst = inputs.empty() ? 2 : 0;
  if (inputs.empty()) print_usage();
  for (const std::string& hex : inputs) {
    Bytes datagram;
    if (!parse_hex(hex, datagram)) {
      std::fprintf(stderr, "ftmp_inspect: not valid hex: %.32s...\n", hex.c_str());
      worst = std::max(worst, 2);
      continue;
    }
    worst = std::max(worst, inspect(datagram));
  }

  if (metrics_format == "prom") {
    std::fputs(metrics::render_prometheus().c_str(), stdout);
  } else if (metrics_format == "json") {
    std::fputs(metrics::render_json().c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return worst;
}
