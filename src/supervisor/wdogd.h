// wdogd: the out-of-process supervisor plane (ROADMAP "out-of-process
// watchdog plane"; cf. watchdogd's supervisor/pmon split). The paper's
// drivers live in-process, so a main-program fault can silently take the
// watchdog down with it (§3.3) — wdogd closes that loop one level up:
// processes subscribe, then must kick within a per-client deadline; silence
// walks an escalation ladder
//
//   warn  →  restart (with backoff, bounded respawns)  →  reboot-equivalent
//
// and every escalation is journaled to a reset-cause log on SimDisk so the
// cause survives the process that earned it.
//
// Processes here are simulated: a SimProcess is a bundle of supervisor-side
// hooks (warn/restart/reboot) — the eval harness binds them to real
// kvs/minizk/minihdfs node lifecycles. The ladder is the §2 multi-stage WDT
// made passive: one daemon thread, whatever the number of subscribers, reads
// each connection's silence (now - last kick) in units of its deadline on
// every pass and fires the rungs that silence has reached. A kick or a
// (re)subscribe starts a new silence episode.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/common/threading.h"
#include "src/fault/fault_injector.h"
#include "src/sim/sim_disk.h"
#include "src/supervisor/protocol.h"
#include "src/supervisor/transport.h"

namespace wdg {

// Why a supervised process was poked, restarted, or rebooted. Journaled.
enum class ResetCause {
  kWarn,                    // first rung: deadline missed once
  kMissedKickRestart,       // silence persisted past the restart rung
  kCrashRestart,            // connection EOF without a clean unsubscribe
  kProtocolErrorRestart,    // client spoke garbage; treated as insane
  kRespawnExhaustedReboot,  // respawn budget spent; the big hammer
  kRestartFailed,           // the restart hook itself reported an error
};

const char* ResetCauseName(ResetCause cause);

// One reset-cause journal line. Tab-separated on disk (embedded tabs and
// newlines escaped), decodable after the supervisor that wrote it is gone.
struct ResetRecord {
  TimeNs at = 0;             // supervisor clock when the ladder fired
  std::string client;        // process name (empty if it never subscribed)
  ResetCause cause = ResetCause::kWarn;
  DurationNs silence = 0;    // time since last kick when this fired
  int respawns = 0;          // respawns consumed for this name so far
  std::string detail;

  static std::string Encode(const ResetRecord& record);
  static Result<ResetRecord> Decode(const std::string& line);
};

struct EscalationPolicy {
  // Kick deadline granted to clients that do not request one; requests are
  // clamped into [min_deadline, max_deadline].
  DurationNs default_deadline = Ms(200);
  DurationNs min_deadline = Ms(20);
  DurationNs max_deadline = Sec(5);
  // Ladder rungs in units of consecutive missed deadlines: warn fires after
  // `warn_misses` deadlines of silence, restart after `restart_misses`. A
  // rung <= 0 never fires, and warn fires only on a rung below restart.
  int warn_misses = 1;
  int restart_misses = 2;
  // Respawn budget per process name; the budget spent, the next escalation
  // reboots instead (and the budget resets — a reboot is a clean slate).
  int max_respawns = 3;
  // Restart backoff: base * multiplier^respawns, so a crash-looping process
  // restarts progressively slower instead of hot-looping.
  DurationNs restart_backoff = Ms(10);
  double backoff_multiplier = 2.0;
};

// Supervisor-side lifecycle hooks for one simulated process. All three are
// invoked from the daemon thread with no wdogd locks held, so they may call
// back into Wdogd (e.g. a restart hook that Connect()s the respawned
// process).
struct SimProcess {
  std::function<void()> on_warn;     // optional
  std::function<Status()> restart;   // respawn the process; optional
  std::function<void()> reboot;      // reboot-equivalent; optional
};

struct WdogdOptions {
  EscalationPolicy policy;
  DurationNs poll = Ms(2);           // daemon loop cadence
  SimDisk* journal_disk = nullptr;   // reset-cause journal target (optional)
  std::string journal_path = "/wdogd/reset-causes.log";
  MetricsRegistry* metrics = nullptr;  // owns a private registry when null
  FaultInjector* injector = nullptr;   // threaded into client pipes
};

class Wdogd {
 public:
  explicit Wdogd(Clock& clock, WdogdOptions options = {});
  ~Wdogd();

  Wdogd(const Wdogd&) = delete;
  Wdogd& operator=(const Wdogd&) = delete;

  // kFailedPrecondition on double-start / stop-before-start.
  Status Start();
  Status Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Registers a simulated process and returns the client end of its pipe.
  // The process is not monitored until it subscribes over that pipe.
  Result<std::unique_ptr<PipeEndpoint>> Connect(SimProcess process);

  // --- observability ----------------------------------------------------
  struct ClientInfo {
    uint64_t id = 0;
    std::string name;
    bool subscribed = false;
    bool restart_pending = false;
    DurationNs deadline = 0;
    int64_t kicks = 0;
    int respawns = 0;  // consumed by this name
  };
  std::vector<ClientInfo> Clients() const;

  int64_t kick_count() const;
  int64_t warn_count() const;
  int64_t restart_count() const;
  int64_t reboot_count() const;
  int64_t crash_count() const;
  int64_t protocol_error_count() const;

  // Decoded reset-cause journal (intact lines only).
  Result<std::vector<ResetRecord>> ReadJournal() const;

  MetricsRegistry& metrics() { return *metrics_; }
  const EscalationPolicy& policy() const { return options_.policy; }

 private:
  struct Conn;
  // Side effects collected under the lock, executed outside it.
  struct PendingAction {
    std::function<void()> run;
  };

  void Loop();
  void DrainConn(Conn& conn, TimeNs now, std::vector<PendingAction>& actions);
  void HandleFrame(Conn& conn, const Frame& frame, TimeNs now,
                   std::vector<PendingAction>& actions);
  void ScheduleRestart(Conn& conn, ResetCause cause, TimeNs now);
  void FireEscalations(TimeNs now, std::vector<PendingAction>& actions);
  void Journal(const ResetRecord& record);
  DurationNs BackoffFor(int respawns) const;

  Clock& clock_;
  WdogdOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;

  mutable std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::map<std::string, int> respawns_by_name_;
  uint64_t next_conn_id_ = 1;

  std::atomic<bool> running_{false};
  std::atomic<int64_t> kicks_{0};
  std::atomic<int64_t> warns_{0};
  std::atomic<int64_t> restarts_{0};
  std::atomic<int64_t> reboots_{0};
  std::atomic<int64_t> crashes_{0};
  std::atomic<int64_t> protocol_errors_{0};

  StopFlag stop_;
  Event wake_;
  JoiningThread thread_;
};

}  // namespace wdg
