#include "net/faults.h"

#include <charconv>
#include <locale>
#include <sstream>

namespace fobs::net {

const char* to_string(FaultChannel channel) {
  switch (channel) {
    case FaultChannel::kData: return "data";
    case FaultChannel::kAck: return "ack";
    case FaultChannel::kControl: return "control";
  }
  return "unknown";
}

namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

bool parse_prob(std::string_view text, double& out) {
  // Hand-rolled "<int>[.<frac>]" parse: std::stod honours the process
  // locale (a comma-decimal locale rejects "0.01"), and std::from_chars
  // for double is spotty across stdlibs. Plans must behave identically
  // regardless of LC_NUMERIC, so stay on the integer parsers.
  const auto dot = text.find('.');
  const std::string_view int_part = text.substr(0, dot);
  const std::string_view frac_part =
      dot == std::string_view::npos ? std::string_view() : text.substr(dot + 1);
  if (int_part.empty() && frac_part.empty()) return false;
  if (frac_part.size() > 18) return false;  // keeps the u64 parse exact
  std::uint64_t int_value = 0;
  std::uint64_t frac_value = 0;
  if (!int_part.empty() && !parse_u64(int_part, int_value)) return false;
  if (!frac_part.empty() && !parse_u64(frac_part, frac_value)) return false;
  double scale = 1.0;
  for (std::size_t i = 0; i < frac_part.size(); ++i) scale *= 10.0;
  out = static_cast<double>(int_value) + static_cast<double>(frac_value) / scale;
  return out >= 0.0 && out <= 1.0;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool apply_item(FaultPlan& plan, std::string_view item, std::string* error) {
  const auto eq = item.find('=');
  if (eq == std::string_view::npos) {
    return fail(error, "fault plan item missing '=': '" + std::string(item) + "'");
  }
  const std::string_view key = item.substr(0, eq);
  const std::string_view value = item.substr(eq + 1);

  if (key == "seed") {
    if (!parse_u64(value, plan.seed)) return fail(error, "bad seed value");
    return true;
  }
  if (key == "crash") {
    if (!parse_i64(value, plan.crash_at_packet) || plan.crash_at_packet < 0) {
      return fail(error, "bad crash packet index");
    }
    return true;
  }

  const auto dot = key.find('.');
  if (dot == std::string_view::npos) {
    return fail(error, "unknown fault plan key: '" + std::string(key) + "'");
  }
  const std::string_view chan_name = key.substr(0, dot);
  const std::string_view field = key.substr(dot + 1);
  ChannelFaults* channel = nullptr;
  if (chan_name == "data") {
    channel = &plan.data;
  } else if (chan_name == "ack") {
    channel = &plan.ack;
  } else if (chan_name == "control") {
    channel = &plan.control;
  } else {
    return fail(error, "unknown fault channel: '" + std::string(chan_name) + "'");
  }

  if (field == "corrupt" || field == "drop" || field == "dup") {
    double prob = 0.0;
    if (!parse_prob(value, prob)) {
      return fail(error, "bad probability for " + std::string(key) + " (need [0,1])");
    }
    if (field == "corrupt") channel->corrupt = prob;
    if (field == "drop") channel->drop = prob;
    if (field == "dup") channel->duplicate = prob;
    return true;
  }
  if (field == "blackhole") {
    const auto plus = value.find('+');
    std::int64_t start = 0;
    std::int64_t count = 0;
    if (plus == std::string_view::npos || !parse_i64(value.substr(0, plus), start) ||
        !parse_i64(value.substr(plus + 1), count) || start < 0 || count <= 0) {
      return fail(error, "bad blackhole window (need <start>+<count>)");
    }
    channel->blackhole_start = start;
    channel->blackhole_count = count;
    return true;
  }
  return fail(error, "unknown fault field: '" + std::string(field) + "'");
}

void append_channel(std::ostringstream& out, const char* name, const ChannelFaults& ch) {
  if (ch.corrupt > 0.0) out << ';' << name << ".corrupt=" << ch.corrupt;
  if (ch.drop > 0.0) out << ';' << name << ".drop=" << ch.drop;
  if (ch.duplicate > 0.0) out << ';' << name << ".dup=" << ch.duplicate;
  if (ch.blackhole_start >= 0) {
    out << ';' << name << ".blackhole=" << ch.blackhole_start << '+' << ch.blackhole_count;
  }
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec, std::string* error) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto semi = spec.find(';', pos);
    const auto end = semi == std::string_view::npos ? spec.size() : semi;
    const std::string_view item = spec.substr(pos, end - pos);
    if (!item.empty() && !apply_item(plan, item, error)) return std::nullopt;
    if (semi == std::string_view::npos) break;
    pos = semi + 1;
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  // The grammar is locale-independent; a comma-decimal global locale
  // must not leak into the serialized probabilities.
  out.imbue(std::locale::classic());
  out << "seed=" << seed;
  append_channel(out, "data", data);
  append_channel(out, "ack", ack);
  append_channel(out, "control", control);
  if (crash_at_packet >= 0) out << ";crash=" << crash_at_packet;
  return out.str();
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan),
      // Distinct derived seeds keep the channel streams independent of
      // each other and of send interleaving.
      rngs_{fobs::util::Rng(plan.seed * 3 + 1), fobs::util::Rng(plan.seed * 3 + 2),
            fobs::util::Rng(plan.seed * 3 + 3)} {}

FaultAction FaultInjector::next(FaultChannel channel) {
  const auto index = static_cast<std::size_t>(channel);
  const ChannelFaults& faults = plan_.channel(channel);
  FaultStats& stats = stats_[index];
  const std::int64_t packet_index = stats.seen++;

  if (faults.blackhole_start >= 0 && packet_index >= faults.blackhole_start &&
      packet_index < faults.blackhole_start + faults.blackhole_count) {
    ++stats.dropped;
    return FaultAction::kDrop;
  }
  // One draw per packet keeps the per-channel schedule a pure function
  // of (seed, packet index).
  const double draw = rngs_[index].uniform();
  if (draw < faults.corrupt) {
    ++stats.corrupted;
    return FaultAction::kCorrupt;
  }
  if (draw < faults.corrupt + faults.drop) {
    ++stats.dropped;
    return FaultAction::kDrop;
  }
  if (draw < faults.corrupt + faults.drop + faults.duplicate) {
    ++stats.duplicated;
    return FaultAction::kDuplicate;
  }
  return FaultAction::kPass;
}

FaultDecision FaultInjector::decide(FaultChannel channel) {
  switch (next(channel)) {
    case FaultAction::kDrop: return {0, false};
    case FaultAction::kCorrupt: return {1, true};
    case FaultAction::kDuplicate: return {2, false};
    case FaultAction::kPass: break;
  }
  return {};
}

std::int64_t FaultInjector::total_injected() const {
  std::int64_t total = 0;
  for (const auto& stats : stats_) {
    total += stats.dropped + stats.corrupted + stats.duplicated;
  }
  return total;
}

}  // namespace fobs::net
