#include "timed_transport.h"

#include "probe.h"

namespace perfbench {

namespace {

uint64_t WireBytes(const bmr::net::LinkStats& s) {
  return s.request_bytes + s.response_bytes;
}

}  // namespace

TimedTransport::TimedTransport(std::unique_ptr<bmr::net::Transport> inner)
    : inner_(std::move(inner)),
      wire_bytes_mark_(WireBytes(inner_->TotalRemoteTraffic())) {}

bmr::Status TimedTransport::Call(int src, int dst, const std::string& method,
                                 bmr::Slice request,
                                 bmr::ByteBuffer* response) {
  if (!timing_.load(std::memory_order_relaxed)) {
    return inner_->Call(src, dst, method, request, response);
  }
  int64_t t0 = NowNs();
  bmr::Status st = inner_->Call(src, dst, method, request, response);
  int64_t ns = NowNs() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  // The engine's only RPC families: job-scoped shuffle fetches and the
  // DFS namenode/datanode services.
  MethodStats* family = method.rfind("shuffle.fetch", 0) == 0
                            ? &stats_.fetch
                            : &stats_.dfs;
  family->calls += 1;
  family->busy_ns += ns;
  family->rtt_us.push_back(static_cast<double>(ns) / 1e3);
  return st;
}

TransportStats TimedTransport::TakeStats() {
  uint64_t wire = WireBytes(inner_->TotalRemoteTraffic());
  std::lock_guard<std::mutex> lock(mu_);
  TransportStats out = std::move(stats_);
  stats_ = TransportStats();
  out.wire_bytes = wire - wire_bytes_mark_;
  wire_bytes_mark_ = wire;
  return out;
}

}  // namespace perfbench
