#include "fleet/fleet_manager.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/crc32.h"
#include "common/metrics.h"
#include "common/serial.h"
#include "common/status.h"

namespace codes {
namespace fleet {

namespace {

/// Fleet residency counters and gauges. Attach counters count *cold*
/// attaches (evicted/never-built -> resident transitions), split by how
/// the bundle was obtained; a lease against an already-resident bundle
/// bumps nothing. Gauges mirror the fleet's current occupancy.
struct FleetMetrics {
  Counter& attach = MetricsRegistry::Global().GetCounter("fleet.attach");
  Counter& attach_build =
      MetricsRegistry::Global().GetCounter("fleet.attach.build");
  Counter& attach_snapshot =
      MetricsRegistry::Global().GetCounter("fleet.attach.snapshot");
  Counter& evict = MetricsRegistry::Global().GetCounter("fleet.evict");
  Gauge& resident_bytes =
      MetricsRegistry::Global().GetGauge("fleet.resident_bytes");
  Gauge& resident_tenants =
      MetricsRegistry::Global().GetGauge("fleet.resident_tenants");
  Gauge& resident_bytes_peak =
      MetricsRegistry::Global().GetGauge("fleet.resident_bytes_peak");
};

FleetMetrics& Metrics() {
  static FleetMetrics* metrics = new FleetMetrics();  // never freed
  return *metrics;
}

// Version 2 holds the value index only, followed by a CRC-32 of every
// byte before it. A version-1 file (which also carried a classifier and a
// demonstration pool) fails the version check and is rebuilt from source.
constexpr uint32_t kTenantMagic = 0x544E4E54;  // "TNNT"
constexpr uint32_t kTenantVersion = 2;

/// Wraps a value index as a tenant bundle priced at its resident cost.
std::shared_ptr<const TenantArtifacts> Bundle(
    std::shared_ptr<const ValueRetriever> retriever) {
  auto artifacts = std::make_shared<TenantArtifacts>();
  artifacts->bytes = sizeof(TenantArtifacts) + retriever->ApproxBytes();
  artifacts->retriever = std::move(retriever);
  return artifacts;
}

}  // namespace

FleetManager::FleetManager(const Options& options)
    : options_(options), resident_({0, options.memory_budget_bytes}) {
  if (!options_.snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.snapshot_dir, ec);
    // A failed mkdir degrades to "no persistence": every attach rebuilds.
    if (ec) options_.snapshot_dir.clear();
  }
}

int FleetManager::AddTenant(TenantDesc desc) {
  std::lock_guard<std::mutex> lock(mu_);
  CODES_CHECK(desc.db != nullptr && "fleet tenant needs a database");
  CODES_CHECK(tenant_ids_.find(desc.name) == tenant_ids_.end() &&
              "duplicate fleet tenant name");
  int id = static_cast<int>(tenants_.size());
  tenant_ids_.emplace(desc.name, id);
  tenants_.push_back(std::move(desc));
  return id;
}

std::string FleetManager::SnapshotPath(int tenant) const {
  if (options_.snapshot_dir.empty()) return "";
  return options_.snapshot_dir + "/" +
         tenants_[static_cast<size_t>(tenant)].name + ".tenant";
}

std::shared_ptr<const TenantArtifacts> FleetManager::BuildFromSource(
    const TenantDesc& desc) const {
  auto retriever = std::make_shared<ValueRetriever>();
  retriever->BuildIndex(*desc.db);
  return Bundle(std::move(retriever));
}

std::shared_ptr<const TenantArtifacts> FleetManager::LoadSnapshot(
    int tenant) const {
  std::string path = SnapshotPath(tenant);
  if (path.empty()) return nullptr;
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Any flipped byte fails the trailer check; a torn or truncated file is
  // rebuilt from source rather than half-trusted.
  if (data.size() < sizeof(uint32_t)) return nullptr;
  size_t body = data.size() - sizeof(uint32_t);
  serial::Reader trailer(std::string_view(data).substr(body));
  uint32_t crc = 0;
  if (!trailer.ReadU32(&crc) || crc != Crc32(data.data(), body)) {
    return nullptr;
  }
  serial::Reader reader(std::string_view(data).substr(0, body));
  if (!serial::ReadMagic(&reader, kTenantMagic, kTenantVersion)) {
    return nullptr;
  }
  auto retriever = std::make_shared<ValueRetriever>();
  if (!retriever->LoadFrom(&reader).ok() || !reader.Done()) return nullptr;
  return Bundle(std::move(retriever));
}

void FleetManager::PersistSnapshot(int tenant,
                                   const TenantArtifacts& artifacts) const {
  std::string path = SnapshotPath(tenant);
  if (path.empty()) return;
  std::string data;
  serial::PutMagic(&data, kTenantMagic, kTenantVersion);
  artifacts.retriever->SaveTo(&data);
  serial::PutU32(&data, Crc32(data.data(), data.size()));
  // Write-then-rename so a crash mid-write leaves either the old snapshot
  // or none — a torn file would just be rebuilt, but never half-trusted.
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) return;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

void FleetManager::UpdateResidencyGaugesLocked() {
  FleetMetrics& m = Metrics();
  size_t bytes = resident_.bytes();
  peak_resident_bytes_ = std::max(peak_resident_bytes_, bytes);
  // Every gauge is re-set on every update, so after a registry Reset the
  // next attach restores all three, the peak included.
  m.resident_bytes.Set(static_cast<int64_t>(bytes));
  m.resident_tenants.Set(static_cast<int64_t>(resident_.size()));
  m.resident_bytes_peak.Set(static_cast<int64_t>(peak_resident_bytes_));
}

std::shared_ptr<const TenantArtifacts> FleetManager::Attach(int tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenants_.size()) {
    return nullptr;
  }
  if (auto lease = resident_.Lookup(tenant)) return lease;

  const TenantDesc& desc = tenants_[static_cast<size_t>(tenant)];
  FleetMetrics& m = Metrics();
  std::shared_ptr<const TenantArtifacts> artifacts = LoadSnapshot(tenant);
  if (artifacts != nullptr) {
    m.attach_snapshot.Increment();
  } else {
    artifacts = BuildFromSource(desc);
    PersistSnapshot(tenant, *artifacts);
    m.attach_build.Increment();
  }
  m.attach.Increment();
  size_t bytes = artifacts->bytes;
  auto result = resident_.Insert(tenant, std::move(artifacts), bytes);
  m.evict.Increment(result.evicted);
  UpdateResidencyGaugesLocked();
  return result.lease;
}

void FleetManager::WarmAll() {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    (void)Attach(static_cast<int>(i));
  }
  EvictAll();
}

void FleetManager::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  Metrics().evict.Increment(resident_.Clear());
  UpdateResidencyGaugesLocked();
}

size_t FleetManager::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_.bytes();
}

size_t FleetManager::NumResident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_.size();
}

size_t FleetManager::PeakResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_resident_bytes_;
}

std::vector<std::string> FleetManager::TenantNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const TenantDesc& desc : tenants_) names.push_back(desc.name);
  return names;
}

}  // namespace fleet
}  // namespace codes
