#include "runtime/udp_front.hpp"

#include <algorithm>

namespace ftcorba::runtime {

ShardedUdpDriver::ShardedUdpDriver(ShardedRuntime& runtime,
                                   net::UdpMulticastTransport::Options options,
                                   std::size_t receive_batch)
    : runtime_(runtime), transport_(std::move(options)),
      receive_batch_(receive_batch == 0 ? 1 : receive_batch) {
  sync_subscriptions();
}

void ShardedUdpDriver::sync_subscriptions() {
  std::vector<McastAddress> want = runtime_.subscriptions();
  std::sort(want.begin(), want.end(),
            [](McastAddress a, McastAddress b) { return a.raw() < b.raw(); });
  for (McastAddress addr : want) {
    if (std::find(joined_.begin(), joined_.end(), addr) == joined_.end()) {
      transport_.join(addr);
      joined_.push_back(addr);
    }
  }
  for (std::size_t i = 0; i < joined_.size();) {
    if (std::find(want.begin(), want.end(), joined_[i]) == want.end()) {
      transport_.leave(joined_[i]);
      joined_.erase(joined_.begin() + std::ptrdiff_t(i));
    } else {
      ++i;
    }
  }
}

std::size_t ShardedUdpDriver::poll_once(Duration max_wait) {
  const std::vector<net::Datagram> burst =
      transport_.receive_many(max_wait, receive_batch_);
  const TimePoint now = wall_now();
  for (const net::Datagram& d : burst) runtime_.ingest(now, d);
  runtime_.tick(now);  // inline mode only; threaded shards tick themselves
  egress_.clear();
  runtime_.drain_egress(egress_);
  // Join before sending: a member that multicasts on an address it has not
  // joined yet misses its own copy (docs/ORDERING.md §2, rule 3).
  sync_subscriptions();
  if (!egress_.empty()) transport_.send_many(egress_);
  return burst.size();
}

void ShardedUdpDriver::run_for(Duration wall) {
  const TimePoint deadline = wall_now() + wall;
  while (wall_now() < deadline) {
    (void)poll_once(1 * kMillisecond);
  }
}

std::vector<ftmp::Event> ShardedUdpDriver::take_events() {
  return runtime_.take_events();
}

}  // namespace ftcorba::runtime
