#include "fobs/stripe/plan.h"

#include <cassert>

namespace fobs::stripe {

std::vector<std::int64_t> round_robin_split(std::int64_t total, int parts) {
  if (parts <= 0 || total < 0) return {};
  const std::int64_t each = total / parts;
  const std::int64_t extra = total % parts;
  std::vector<std::int64_t> out(static_cast<std::size_t>(parts), each);
  for (std::int64_t i = 0; i < extra; ++i) ++out[static_cast<std::size_t>(i)];
  return out;
}

bool StripePlan::make(core::TransferSpec spec, int stripes, StripePlan* out,
                      std::string* error) {
  auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (out == nullptr) return fail("null output plan");
  if (spec.object_bytes <= 0 || spec.packet_bytes <= 0) return fail("invalid transfer geometry");
  if (stripes < 1 || stripes > kMaxStripes) return fail("stripe count outside [1, kMaxStripes]");
  const std::int64_t packets = spec.packet_count();
  if (stripes > packets) return fail("more stripes than packets");

  out->spec_ = spec;
  out->stripe_count_ = stripes;
  const auto counts = round_robin_split(packets, stripes);
  out->prefix_.assign(static_cast<std::size_t>(stripes) + 1, 0);
  for (int s = 0; s < stripes; ++s) {
    out->prefix_[static_cast<std::size_t>(s) + 1] =
        out->prefix_[static_cast<std::size_t>(s)] + counts[static_cast<std::size_t>(s)];
  }
  return true;
}

int StripePlan::max_stripes(const core::TransferSpec& spec) {
  if (spec.object_bytes <= 0 || spec.packet_bytes <= 0) return 0;
  const std::int64_t packets = spec.packet_count();
  return static_cast<int>(packets < kMaxStripes ? packets : kMaxStripes);
}

std::int64_t StripePlan::stripe_packets(int s) const {
  assert(s >= 0 && s < stripe_count_);
  return prefix_[static_cast<std::size_t>(s) + 1] - prefix_[static_cast<std::size_t>(s)];
}

std::int64_t StripePlan::stripe_bytes(int s) const {
  assert(s >= 0 && s < stripe_count_);
  const std::int64_t packets = stripe_packets(s);
  // Every packet is full-sized except the object's final packet, which
  // is the last local packet of the last stripe.
  if (s != stripe_count_ - 1) return packets * spec_.packet_bytes;
  return (packets - 1) * spec_.packet_bytes + spec_.payload_bytes(spec_.packet_count() - 1);
}

}  // namespace fobs::stripe
