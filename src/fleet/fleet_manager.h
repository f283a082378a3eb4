#ifndef CODES_FLEET_FLEET_MANAGER_H_
#define CODES_FLEET_FLEET_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lease_cache.h"
#include "retrieval/value_retriever.h"
#include "serve/admission.h"
#include "sqlengine/database.h"

namespace codes {
namespace fleet {

/// The resident artifact bundle of one attached tenant: the state the
/// serving path derives from the tenant's database, priced in bytes so the
/// fleet can hold N tenants under one global memory budget. Today that is
/// the value index, the only per-tenant artifact a request reads
/// (ServeOptions::value_retriever).
///
/// Bundles are immutable once built and handed out as shared_ptr leases:
/// eviction drops the fleet's reference, but an in-flight request keeps
/// its lease alive until it finishes — there is never a dangling artifact
/// pointer, only a briefly over-budget process.
struct TenantArtifacts {
  /// BM25 value index over the tenant database (Section 6.2 coarse stage).
  std::shared_ptr<const ValueRetriever> retriever;
  /// Resident cost: the index's ApproxBytes plus this struct.
  size_t bytes = 0;
};

/// A database fleet manager: owns N tenants in one process, attaching
/// per-tenant bundles lazily, persisting them so a cold re-attach skips
/// the index build, and evicting least-recently-used bundles (LeaseCache)
/// once the configured global memory budget is exceeded. Per-database
/// prompt state becomes a cacheable, evictable, reloadable serving asset
/// (CodeS SIGMOD'24 §6).
///
/// Metrics: fleet.attach / fleet.attach.build / fleet.attach.snapshot /
/// fleet.evict counters, fleet.resident_bytes / fleet.resident_tenants /
/// fleet.resident_bytes_peak gauges.
///
/// Thread-safety: all public methods are serialized by an internal mutex.
/// Attach builds under the lock — the determinism campaigns drive the
/// fleet from a single DES thread, and live serving amortizes builds via
/// snapshots, so a coarse lock is the simple correct choice. Leases
/// returned by Attach are immutable and safe to use from any thread.
class FleetManager {
 public:
  struct Options {
    /// Global budget over the sum of resident bundle bytes; 0 = no limit.
    /// At least one bundle stays resident even when a single bundle
    /// exceeds the budget (a fleet that can hold nothing serves nothing).
    size_t memory_budget_bytes = 0;
    /// Directory for per-tenant snapshot files ("<name>.tenant"). Empty
    /// disables persistence: every cold attach rebuilds from source.
    std::string snapshot_dir;
  };

  /// Registration-time description of a tenant. Pointers are borrowed and
  /// must outlive the fleet; they are the rebuild source of truth when no
  /// snapshot exists (or a snapshot fails verification).
  struct TenantDesc {
    std::string name;                 ///< unique; used in metrics + files
    const sql::Database* db = nullptr;  ///< value-index source (required)
    /// Relative weight for weighted-fair admission.
    double admission_weight = 1.0;
    /// Per-tenant admission burst (tokens).
    double admission_burst = 8.0;
  };

  explicit FleetManager(const Options& options);

  /// Registers a tenant; no artifacts are built yet. Returns the tenant
  /// id used by Attach and the admission layer. Names must be unique.
  int AddTenant(TenantDesc desc);

  int NumTenants() const { return static_cast<int>(tenants_.size()); }
  const std::string& TenantName(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].name;
  }

  /// The tenant's artifact bundle, building (or reloading from snapshot)
  /// on first use and touching its LRU stamp. Never returns null for a
  /// valid id; returns null for an out-of-range id. The lease keeps the
  /// bundle alive across eviction.
  std::shared_ptr<const TenantArtifacts> Attach(int tenant);

  /// Builds (and persists, when a snapshot_dir is configured) every
  /// tenant's bundle once, then evicts them all. After a warm-up, every
  /// Attach in a campaign is a snapshot load — the same work on every
  /// replay, which is what keeps fleet metric counts run-invariant.
  void WarmAll();

  /// Drops every resident bundle (outstanding leases stay valid).
  /// Counts as evictions in the metrics.
  void EvictAll();

  /// Sum of resident bundle bytes / number of resident bundles.
  size_t ResidentBytes() const;
  size_t NumResident() const;
  /// High-water mark of ResidentBytes over the fleet's lifetime.
  size_t PeakResidentBytes() const;

  /// Per-tenant weighted-fair admission specs, in tenant-id order —
  /// plug into AdmissionController::Options::tenants.
  std::vector<serve::WeightedFairLimiter::TenantSpec> AdmissionSpecs() const;
  /// Tenant names in tenant-id order — plug into
  /// FrontEndOptions::tenant_names.
  std::vector<std::string> TenantNames() const;

  /// Path of `tenant`'s snapshot file ("" when persistence is disabled).
  std::string SnapshotPath(int tenant) const;

 private:
  /// Builds the bundle from source (db scan and BM25 indexing).
  /// Expensive; the path a snapshot load avoids.
  std::shared_ptr<const TenantArtifacts> BuildFromSource(
      const TenantDesc& desc) const;
  /// Attempts a snapshot load; null when missing or malformed (the
  /// caller falls back to BuildFromSource — snapshots are a cache).
  std::shared_ptr<const TenantArtifacts> LoadSnapshot(
      const TenantDesc& desc) const;
  /// Serializes + atomically writes the bundle's snapshot file.
  void PersistSnapshot(const TenantDesc& desc,
                       const TenantArtifacts& artifacts) const;
  void UpdateResidencyGaugesLocked();

  Options options_;
  mutable std::mutex mu_;
  std::vector<TenantDesc> tenants_;
  std::unordered_map<std::string, int> tenant_ids_;
  /// Resident bundles by tenant id, under the byte budget.
  LeaseCache<int, TenantArtifacts> resident_;
  size_t peak_resident_bytes_ = 0;
};

}  // namespace fleet
}  // namespace codes

#endif  // CODES_FLEET_FLEET_MANAGER_H_
