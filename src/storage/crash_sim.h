#ifndef CODES_STORAGE_CRASH_SIM_H_
#define CODES_STORAGE_CRASH_SIM_H_

// Deterministic crash simulation for the storage layer (DESIGN.md
// section 15). A SimEnv is a tiny simulated filesystem whose files track
// two byte images: the DURABLE image (what survives power loss) and the
// MERGED image (durable + OS-buffered writes). Write/Truncate mutate only
// the merged image; Sync promotes merged to durable — exactly the contract
// of a POSIX file with write-back caching.
//
// Every Write/Sync/Truncate across the whole environment is one numbered
// *crash boundary*. The CrashController can be armed to crash at boundary
// k; when that op arrives, the environment resolves every file according
// to the crash variant and all further I/O fails until Reboot():
//
//   kLostBuffer   unsynced writes vanish (merged reverts to durable)
//   kEagerBuffer  unsynced writes persist (the OS flushed them early);
//                 the crashing op itself does NOT happen
//   kTorn         like kEagerBuffer, plus a prefix of the crashing write
//                 is persisted — the classic torn page/record
//
// The three variants bracket real hardware: any actual power loss leaves
// each file somewhere between kLostBuffer and kTorn. A storage engine that
// recovers correctly from all three at every boundary is prefix-consistent
// under arbitrary write-back caching.
//
// Threading: a SimEnv models one single-threaded process; campaigns get
// parallelism by giving each crash case its own SimEnv. No internal locks.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/file.h"

namespace codes::storage {

class SimFile;

enum class CrashVariant : int {
  kLostBuffer = 0,
  kEagerBuffer = 1,
  kTorn = 2,
};

const char* CrashVariantName(CrashVariant v);

/// Where and how to crash. `crash_op` is the 0-based boundary index; the
/// crash fires *instead of* that operation.
struct CrashPlan {
  uint64_t crash_op = UINT64_MAX;
  CrashVariant variant = CrashVariant::kLostBuffer;
  /// kTorn: bytes of the crashing write that reach the durable image
  /// (clamped to the write size).
  size_t torn_bytes = 0;
};

/// One recorded crash boundary from a counting (unarmed) run.
struct CrashOpRecord {
  enum class Kind : uint8_t { kWrite = 0, kSync = 1, kTruncate = 2 };
  Kind kind = Kind::kWrite;
  uint64_t bytes = 0;  ///< write size; 0 for sync/truncate
};

class CrashController {
 public:
  /// Arms a crash plan (op counter restarts at 0).
  void Arm(const CrashPlan& plan);

  /// Starts recording one CrashOpRecord per boundary (op counter restarts
  /// at 0). Used by campaigns to enumerate boundaries before armed runs.
  void StartRecording();
  const std::vector<CrashOpRecord>& trace() const { return trace_; }

  uint64_t op_count() const { return op_count_; }
  bool crashed() const { return crashed_; }
  const CrashPlan& plan() const { return plan_; }

 private:
  friend class SimFile;
  friend class SimEnv;

  /// Registers `op` as the next boundary; true when it is the crash point.
  bool OnOp(CrashOpRecord::Kind kind, uint64_t bytes);

  std::vector<SimFile*> files_;
  CrashPlan plan_;
  bool armed_ = false;
  bool crashed_ = false;
  bool recording_ = false;
  uint64_t op_count_ = 0;
  std::vector<CrashOpRecord> trace_;
};

/// One simulated file. Obtain via SimEnv::GetFile.
class SimFile final : public File {
 public:
  explicit SimFile(CrashController* ctrl) : ctrl_(ctrl) {}

  /// Writes `n` bytes at `off` into the merged image, zero-extending any
  /// gap. Crash boundary.
  Status Write(uint64_t off, const void* data, size_t n) override;

  /// Reads `n` bytes at `off` from the merged image; fails on short read.
  Status Read(uint64_t off, void* out, size_t n) const override;

  /// Promotes the merged image to durable. Crash boundary.
  Status Sync() override;

  /// Shrinks/extends the merged image. Crash boundary.
  Status Truncate(uint64_t new_size) override;

  uint64_t size() const override { return merged_.size(); }
  uint64_t durable_size() const { return durable_.size(); }

 private:
  friend class CrashController;
  friend class SimEnv;

  Status CheckAlive() const;
  /// Applies `variant` at crash time: kLostBuffer reverts merged to
  /// durable; the eager variants promote merged to durable.
  void ResolveForCrash(CrashVariant variant);
  /// kTorn only: persists the prefix of the crashing write.
  void ApplyTornPrefix(uint64_t off, const void* data, size_t n);

  CrashController* ctrl_;
  std::vector<std::byte> durable_;
  std::vector<std::byte> merged_;
};

/// A named collection of SimFiles sharing one crash controller, plus the
/// reboot lifecycle. Files spring into (empty) existence on first access,
/// like O_CREAT.
class SimEnv {
 public:
  SimEnv() = default;
  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  CrashController& controller() { return controller_; }

  /// Returns the named file, creating an empty one if absent.
  SimFile* GetFile(const std::string& name);

  /// Post-crash "power cycle": clears the crashed flag, disarms the
  /// controller, and resets every file's merged image to its durable one
  /// (a rebooted OS has no dirty page cache). Safe to call when no crash
  /// happened (volatile state is then deliberately dropped, simulating a
  /// clean power-off without sync).
  void Reboot();

 private:
  CrashController controller_;
  std::map<std::string, std::unique_ptr<SimFile>> files_;
};

}  // namespace codes::storage

#endif  // CODES_STORAGE_CRASH_SIM_H_
