// Per-method timing decorator over net::Transport.  The benchmark
// builds its ClusterContext around one of these, so every RPC the
// engine makes — shuffle fetches and DFS namenode/datanode calls — is
// timed at the transport interface from outside src/.  Timing is
// switched on only for the traced run; otherwise Call forwards after
// one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"

namespace perfbench {

/// Calls of one method family since the last TakeStats.
struct MethodStats {
  uint64_t calls = 0;
  int64_t busy_ns = 0;            ///< sum of call wall times
  std::vector<double> rtt_us;     ///< one entry per call
};

struct TransportStats {
  MethodStats fetch;  ///< shuffle.fetch.<job>
  MethodStats dfs;    ///< nn.* and dn.*
  /// Remote request + response bytes the transport itself counted.
  uint64_t wire_bytes = 0;
};

class TimedTransport final : public bmr::net::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<bmr::net::Transport> inner);

  void SetTiming(bool on) { timing_.store(on, std::memory_order_relaxed); }
  /// Stats since the previous call (or construction), then reset.
  TransportStats TakeStats();

  int num_nodes() const override { return inner_->num_nodes(); }
  void Register(int node, const std::string& method,
                bmr::net::RpcHandler handler) override {
    inner_->Register(node, method, std::move(handler));
  }
  void Unregister(int node, const std::string& method) override {
    inner_->Unregister(node, method);
  }
  void KillNode(int node) override { inner_->KillNode(node); }
  [[nodiscard]] bmr::Status Call(int src, int dst, const std::string& method,
                                 bmr::Slice request,
                                 bmr::ByteBuffer* response) override;
  bmr::net::LinkStats GetLinkStats(int src, int dst) const override {
    return inner_->GetLinkStats(src, dst);
  }
  bmr::net::LinkStats TotalRemoteTraffic() const override {
    return inner_->TotalRemoteTraffic();
  }
  uint64_t handler_reregistrations() const override {
    return inner_->handler_reregistrations();
  }
  void SetFaultInjector(bmr::faults::FaultInjector* injector) override {
    inner_->SetFaultInjector(injector);
  }
  /// Forwarded, so a traced job pays for the per-call RPC recording,
  /// trace-context framing and handler spans its tracer asks for; the
  /// decorator's own timing does not depend on it.
  void SetObserver(bmr::obs::Tracer* tracer) override {
    inner_->SetObserver(tracer);
  }

 private:
  std::unique_ptr<bmr::net::Transport> inner_;
  std::atomic<bool> timing_{false};
  std::mutex mu_;
  TransportStats stats_;
  uint64_t wire_bytes_mark_ = 0;
};

}  // namespace perfbench
