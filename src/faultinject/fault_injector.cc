#include "faultinject/fault_injector.h"

#include <cstdlib>

#include "metrics/metrics.h"

namespace sketchtree {

namespace {

size_t Index(FaultSite site) { return static_cast<size_t>(site); }

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

const char* FaultInjector::SiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kFileShortWrite:
      return "file.short_write";
    case FaultSite::kFileWriteError:
      return "file.write_error";
    case FaultSite::kFileTornRename:
      return "file.torn_rename";
    case FaultSite::kFileReadError:
      return "file.read_error";
    case FaultSite::kQueueStall:
      return "queue.stall";
    case FaultSite::kMalformedTree:
      return "tree.malformed";
    case FaultSite::kReaderError:
      return "reader.error";
    case FaultSite::kNetConnectRefused:
      return "net.connect_refused";
    case FaultSite::kNetDisconnect:
      return "net.disconnect";
    case FaultSite::kNetSlowWrite:
      return "net.slow_write";
    case FaultSite::kNetGarbledReply:
      return "net.garbled_reply";
    case FaultSite::kStoreTornPageWrite:
      return "store.torn_page";
    case FaultSite::kStoreMmapFail:
      return "store.mmap_fail";
  }
  return "unknown";
}

void FaultInjector::Arm(FaultSite site, FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[Index(site)];
  state.armed = true;
  state.plan = plan;
  state.hits = 0;
  state.fires = 0;
  armed_mask_.fetch_or(1u << Index(site), std::memory_order_release);
}

void FaultInjector::Disarm(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[Index(site)].armed = false;
  armed_mask_.fetch_and(~(1u << Index(site)), std::memory_order_release);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (SiteState& state : sites_) state.armed = false;
  armed_mask_.store(0, std::memory_order_release);
}

bool FaultInjector::ShouldFire(FaultSite site, uint64_t* param_out) {
  if ((armed_mask_.load(std::memory_order_acquire) &
       (1u << Index(site))) == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[Index(site)];
  if (!state.armed) return false;  // Raced with Disarm; count nothing.
  uint64_t hit = state.hits++;
  if (hit < state.plan.skip_first) return false;
  if (state.plan.fire_count != 0 &&
      hit >= state.plan.skip_first + state.plan.fire_count) {
    return false;
  }
  ++state.fires;
  if (param_out != nullptr) *param_out = state.plan.param;
  GlobalMetrics()
      .GetCounter(std::string("faults.fired.") + SiteName(site))
      ->Increment();
  return true;
}

uint64_t FaultInjector::hits(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[Index(site)].hits;
}

uint64_t FaultInjector::fires(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[Index(site)].fires;
}

Status FaultInjector::ArmFromSpec(std::string_view spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("empty fault spec");
  }
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view entry = spec.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;

    size_t at = entry.find('@');
    if (at == std::string_view::npos) {
      return Status::InvalidArgument("fault spec entry '" +
                                     std::string(entry) +
                                     "' is missing '@skip_first'");
    }
    std::string_view name = entry.substr(0, at);
    std::string_view numbers = entry.substr(at + 1);

    bool known = false;
    FaultSite site = FaultSite::kFileShortWrite;
    for (int s = 0; s < kNumFaultSites; ++s) {
      if (name == SiteName(static_cast<FaultSite>(s))) {
        site = static_cast<FaultSite>(s);
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown fault site '" +
                                     std::string(name) + "'");
    }

    FaultPlan plan;
    std::string_view rest = numbers;
    size_t colon = rest.find(':');
    if (colon != std::string_view::npos) {
      std::string param_text(rest.substr(colon + 1));
      char* end = nullptr;
      plan.param = std::strtoull(param_text.c_str(), &end, 10);
      if (end == param_text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad fault param in '" +
                                       std::string(entry) + "'");
      }
      rest = rest.substr(0, colon);
    }
    size_t x = rest.find('x');
    if (x != std::string_view::npos) {
      std::string count_text(rest.substr(x + 1));
      char* end = nullptr;
      plan.fire_count = std::strtoull(count_text.c_str(), &end, 10);
      if (end == count_text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad fault fire count in '" +
                                       std::string(entry) + "'");
      }
      rest = rest.substr(0, x);
    }
    std::string skip_text(rest);
    char* end = nullptr;
    plan.skip_first = std::strtoull(skip_text.c_str(), &end, 10);
    if (end == skip_text.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad fault skip count in '" +
                                     std::string(entry) + "'");
    }
    Arm(site, plan);
  }
  return Status::OK();
}

}  // namespace sketchtree
