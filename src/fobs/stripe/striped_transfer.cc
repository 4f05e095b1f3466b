#include "fobs/stripe/striped_transfer.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "fobs/posix/checkpoint.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::posix {

namespace {

void sum_io(fobs::net::IoStats& into, const fobs::net::IoStats& add) {
  into.send_syscalls += add.send_syscalls;
  into.recv_syscalls += add.recv_syscalls;
  into.datagrams_sent += add.datagrams_sent;
  into.datagrams_received += add.datagrams_received;
  into.send_would_block += add.send_would_block;
  into.bytes_sent += add.bytes_sent;
  into.bytes_received += add.bytes_received;
  into.copy_bytes_avoided += add.copy_bytes_avoided;
}

/// Failure ordering for the aggregate status: configuration and socket
/// errors are the most actionable, a quiet stall the least.
int severity(TransferStatus status) {
  switch (status) {
    case TransferStatus::kBadOptions: return 7;
    case TransferStatus::kSocketError: return 6;
    case TransferStatus::kCrashed: return 5;
    case TransferStatus::kCancelled: return 4;
    case TransferStatus::kPeerLost: return 3;
    case TransferStatus::kTimeout: return 2;
    case TransferStatus::kStalled: return 1;
    default: return 0;
  }
}

/// Derives every aggregate field of `result` from its per-stripe
/// vectors (exactly one of which is populated).
void finalize_aggregate(StripedResult& result, std::int64_t object_bytes) {
  result.stripes_completed = 0;
  result.packets_restored = 0;
  result.io = {};
  double slowest = 0.0;
  TransferStatus worst = TransferStatus::kCompleted;
  std::string worst_error;
  auto fold = [&](int index, TransferStatus status, const std::string& error, double elapsed,
                  const fobs::net::IoStats& io) {
    if (status == TransferStatus::kCompleted) {
      ++result.stripes_completed;
    } else if (severity(status) > severity(worst) || worst == TransferStatus::kCompleted) {
      worst = status;
      worst_error = "stripe " + std::to_string(index) + ": " + error;
    }
    slowest = std::max(slowest, elapsed);
    sum_io(result.io, io);
  };
  for (std::size_t i = 0; i < result.stripe_senders.size(); ++i) {
    const auto& r = result.stripe_senders[i];
    fold(static_cast<int>(i), r.status, r.error, r.elapsed_seconds, r.io);
  }
  for (std::size_t i = 0; i < result.stripe_receivers.size(); ++i) {
    const auto& r = result.stripe_receivers[i];
    fold(static_cast<int>(i), r.status, r.error, r.elapsed_seconds, r.io);
    result.packets_restored += r.packets_restored;
  }
  result.elapsed_seconds = slowest;
  if (result.stripes_completed == result.stripes && result.stripes > 0) {
    result.status = TransferStatus::kCompleted;
    result.error.clear();
    result.goodput_mbps = fobs::net::mbps(object_bytes, slowest);
  } else {
    result.status = worst;
    result.error = worst_error;
    result.goodput_mbps = 0.0;
  }
  auto& metrics = telemetry::MetricsRegistry::global();
  if (result.completed()) {
    metrics.counter("fobs.stripe.completed").inc();
  } else if (result.degraded()) {
    metrics.counter("fobs.stripe.degraded").inc();
  }
}

/// Builds the plan both sides share, or fills `error`: the object must
/// hold at least `stripes` packets and both port blocks must fit below
/// 65536.
std::shared_ptr<const stripe::StripePlan> make_plan(const fobs::core::TransferSpec& spec,
                                                    int stripes, std::uint16_t data_port,
                                                    std::uint16_t control_port,
                                                    std::string& error) {
  if (data_port == 0 || control_port == 0) {
    error = "data_port and control_port must be non-zero";
    return nullptr;
  }
  if (data_port + stripes - 1 > 0xFFFF || control_port + stripes - 1 > 0xFFFF) {
    error = "stripe port block exceeds the port space";
    return nullptr;
  }
  stripe::StripePlan plan;
  if (!stripe::StripePlan::make(spec, stripes, &plan, &error)) {
    error = "stripe plan rejected: " + error;
    return nullptr;
  }
  return std::make_shared<const stripe::StripePlan>(std::move(plan));
}

/// Stripe `index`'s copy of a flow template: ports offset by the index,
/// the per-stripe fault-plan override, and the stripe reference.
template <typename Options>
Options stripe_flow(const Options& flow, const std::vector<std::string>& fault_plans,
                    const std::shared_ptr<const stripe::StripePlan>& plan, int index) {
  Options options = flow;
  options.data_port = static_cast<std::uint16_t>(flow.data_port + index);
  options.control_port = static_cast<std::uint16_t>(flow.control_port + index);
  if (static_cast<std::size_t>(index) < fault_plans.size() &&
      !fault_plans[static_cast<std::size_t>(index)].empty()) {
    options.endpoint.fault_plan = fault_plans[static_cast<std::size_t>(index)];
  }
  options.stripe = {plan, index};
  return options;
}

/// Collects per-stripe sender results as sessions finish and fires the
/// caller's on_complete after the last.
struct SendAggregation {
  std::mutex mu;
  int remaining = 0;
  std::int64_t object_bytes = 0;
  StripedResult result;
  std::function<void(const StripedResult&)> on_complete;

  void stripe_done(int index, const SenderResult& stripe_result) {
    std::function<void(const StripedResult&)> fire;
    {
      std::lock_guard lock(mu);
      result.stripe_senders[static_cast<std::size_t>(index)] = stripe_result;
      if (--remaining == 0) {
        finalize_aggregate(result, object_bytes);
        fire = std::move(on_complete);
      }
    }
    if (fire) fire(result);
  }
};

}  // namespace

std::string stripe_checkpoint_path(const std::string& base, int index) {
  return base + ".s" + std::to_string(index);
}

// ---------------------------------------------------------------------------
// Sender orchestration
// ---------------------------------------------------------------------------

bool TransferEngine::submit_striped_send(const StripedSenderOptions& options,
                                         std::span<const std::uint8_t> object,
                                         StripedSessionParams params, std::string* error) {
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("fobs.stripe.transfers").inc();
  const fobs::core::TransferSpec spec{static_cast<std::int64_t>(object.size()),
                                      options.flow.endpoint.packet_bytes};
  std::string plan_error;
  const auto plan = make_plan(spec, options.stripes, options.flow.data_port,
                              options.flow.control_port, plan_error);
  if (!plan) {
    if (error != nullptr) *error = plan_error;
    if (params.owns_control_ports && options.stripes > 0) {
      release_control_port_block(options.flow.control_port,
                                 static_cast<std::size_t>(options.stripes));
    }
    return false;
  }
  const int stripes = options.stripes;
  metrics.counter("fobs.stripe.sessions").inc(stripes);
  auto agg = std::make_shared<SendAggregation>();
  agg->remaining = stripes;
  agg->object_bytes = spec.object_bytes;
  agg->result.is_sender = true;
  agg->result.stripes = stripes;
  agg->result.stripe_senders.resize(static_cast<std::size_t>(stripes));
  agg->on_complete = std::move(params.on_complete);
  for (int i = 0; i < stripes; ++i) {
    const SenderOptions stripe_options =
        stripe_flow(options.flow, options.stripe_fault_plans, plan, i);
    SessionParams session_params;
    session_params.keepalive = params.keepalive;  // shared across stripes
    if (params.owns_control_ports) session_params.owned_control_port = stripe_options.control_port;
    session_params.on_exit = [agg, i, on_stripe_exit = params.on_stripe_exit](
                                 const TransferHandle& handle) {
      if (on_stripe_exit) on_stripe_exit(handle);
      agg->stripe_done(i, handle.sender_result());
    };
    submit_send(stripe_options, object, std::move(session_params));
  }
  return true;
}

StripedResult TransferEngine::run_striped_sender(const StripedSenderOptions& options,
                                                 std::span<const std::uint8_t> object) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  StripedResult result;
  StripedSessionParams params;
  params.on_complete = [&](const StripedResult& aggregate) {
    // Notify under the mutex: the waiter owns cv on its stack and may
    // destroy it the moment it can reacquire mu, so the broadcast must
    // complete before this thread releases the lock.
    std::lock_guard lock(mu);
    result = aggregate;
    done = true;
    cv.notify_all();
  };
  std::string error;
  if (!submit_striped_send(options, object, std::move(params), &error)) {
    result.is_sender = true;
    result.status = TransferStatus::kBadOptions;
    result.error = error;
    return result;
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return done; });
  return result;
}

// ---------------------------------------------------------------------------
// Receiver orchestration
// ---------------------------------------------------------------------------

StripedResult TransferEngine::run_striped_receiver(const StripedReceiverOptions& options,
                                                   std::span<std::uint8_t> buffer) {
  StripedResult result;
  result.is_sender = false;
  result.status = TransferStatus::kBadOptions;
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("fobs.stripe.transfers").inc();
  const fobs::core::TransferSpec spec{static_cast<std::int64_t>(buffer.size()),
                                      options.flow.endpoint.packet_bytes};
  const auto plan = make_plan(spec, options.stripes, options.flow.data_port,
                              options.flow.control_port, result.error);
  if (!plan) return result;
  const int stripes = options.stripes;
  result.stripes = stripes;
  metrics.counter("fobs.stripe.sessions").inc(stripes);

  std::vector<TransferHandle> handles;
  handles.reserve(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    handles.push_back(
        submit_receive(stripe_flow(options.flow, options.stripe_fault_plans, plan, i), buffer));
  }
  result.stripe_receivers.resize(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    handles[static_cast<std::size_t>(i)].wait();
    result.stripe_receivers[static_cast<std::size_t>(i)] =
        handles[static_cast<std::size_t>(i)].receiver_result();
  }
  finalize_aggregate(result, spec.object_bytes);
  if (result.packets_restored > 0) metrics.counter("fobs.stripe.resumes").inc();
  result.resumable = !result.completed() && !options.flow.checkpoint_path.empty() &&
                     load_checkpoint(options.flow.checkpoint_path).has_value();
  return result;
}

}  // namespace fobs::posix
