#include "runtime/udp_front.hpp"

namespace ftcorba::runtime {

ShardedUdpDriver::ShardedUdpDriver(ShardedRuntime& runtime,
                                   net::UdpMulticastTransport::Options options,
                                   std::size_t receive_batch)
    : runtime_(runtime), transport_(std::move(options)),
      receive_batch_(receive_batch == 0 ? 1 : receive_batch) {
  joins_.transmit(runtime_.subscriptions(), egress_, transport_);
}

std::size_t ShardedUdpDriver::poll_once(Duration max_wait) {
  const std::vector<net::Datagram> burst =
      transport_.receive_many(max_wait, receive_batch_);
  const TimePoint now = wall_now();
  for (const net::Datagram& d : burst) runtime_.ingest(now, d);
  runtime_.tick(now);  // inline mode only; threaded shards tick themselves
  egress_.clear();
  runtime_.drain_egress(egress_);
  joins_.transmit(runtime_.subscriptions(), egress_, transport_);
  return burst.size();
}

}  // namespace ftcorba::runtime
