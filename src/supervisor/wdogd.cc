#include "src/supervisor/wdogd.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace wdg {
namespace {

std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\\': out += "\\\\"; break;
      default: out += c;
    }
  }
  return out;
}

std::string Unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      ++i;
      switch (text[i]) {
        case 't': out += '\t'; break;
        case 'n': out += '\n'; break;
        case '\\': out += '\\'; break;
        default: out += text[i];
      }
    } else {
      out += text[i];
    }
  }
  return out;
}

Result<ResetCause> CauseFromName(const std::string& name) {
  static constexpr ResetCause kAll[] = {
      ResetCause::kWarn,           ResetCause::kMissedKickRestart,
      ResetCause::kCrashRestart,   ResetCause::kProtocolErrorRestart,
      ResetCause::kRespawnExhaustedReboot, ResetCause::kRestartFailed,
  };
  for (ResetCause cause : kAll) {
    if (name == ResetCauseName(cause)) {
      return cause;
    }
  }
  return CorruptionError("unknown reset cause: " + name);
}

}  // namespace

const char* ResetCauseName(ResetCause cause) {
  switch (cause) {
    case ResetCause::kWarn: return "warn";
    case ResetCause::kMissedKickRestart: return "missed-kick-restart";
    case ResetCause::kCrashRestart: return "crash-restart";
    case ResetCause::kProtocolErrorRestart: return "protocol-error-restart";
    case ResetCause::kRespawnExhaustedReboot: return "respawn-exhausted-reboot";
    case ResetCause::kRestartFailed: return "restart-failed";
  }
  return "unknown";
}

std::string ResetRecord::Encode(const ResetRecord& record) {
  return StrFormat("%lld\t%s\t%s\t%lld\t%d\t%s",
                   static_cast<long long>(record.at), Escape(record.client).c_str(),
                   ResetCauseName(record.cause), static_cast<long long>(record.silence),
                   record.respawns, Escape(record.detail).c_str());
}

Result<ResetRecord> ResetRecord::Decode(const std::string& line) {
  const auto fields = StrSplit(line, '\t');
  if (fields.size() != 6) {
    return CorruptionError("reset record has " + std::to_string(fields.size()) +
                           " fields, want 6");
  }
  ResetRecord record;
  record.at = static_cast<TimeNs>(std::strtoll(fields[0].c_str(), nullptr, 10));
  record.client = Unescape(fields[1]);
  WDG_ASSIGN_OR_RETURN(record.cause, CauseFromName(fields[2]));
  record.silence = static_cast<DurationNs>(std::strtoll(fields[3].c_str(), nullptr, 10));
  record.respawns = static_cast<int>(std::strtol(fields[4].c_str(), nullptr, 10));
  record.detail = Unescape(fields[5]);
  return record;
}

// ------------------------------------------------------------------ Conn

struct Wdogd::Conn {
  uint64_t id = 0;
  std::string name;
  std::unique_ptr<PipeEndpoint> pipe;  // supervisor end
  FrameReader reader;
  SimProcess process;
  DurationNs deadline = 0;
  TimeNs last_kick = 0;
  bool warned = false;  // warn rung fired in this silence episode
  int64_t kicks = 0;
  bool subscribed = false;
  bool unsubscribed = false;
  bool restart_pending = false;
  TimeNs restart_due = 0;
  ResetCause pending_cause = ResetCause::kMissedKickRestart;
  bool dead = false;  // scheduled for teardown in this pass's sweep
};

// ------------------------------------------------------------------ Wdogd

Wdogd::Wdogd(Clock& clock, WdogdOptions options)
    : clock_(clock), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
}

Wdogd::~Wdogd() {
  if (running_.load(std::memory_order_acquire)) {
    (void)Stop();
  }
}

Status Wdogd::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return FailedPreconditionError("wdogd is already running");
  }
  if (stop_.Requested()) {
    running_.store(false, std::memory_order_release);
    return FailedPreconditionError("wdogd cannot be restarted after Stop");
  }
  if (options_.journal_disk != nullptr &&
      !options_.journal_disk->Exists(options_.journal_path)) {
    (void)options_.journal_disk->Create(options_.journal_path);
  }
  thread_ = JoiningThread([this] { Loop(); });
  return Status::Ok();
}

Status Wdogd::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return FailedPreconditionError("wdogd is not running");
  }
  stop_.Request();
  wake_.Notify();
  thread_.Join();
  // Closing the supervisor pipe ends lets clients observe EOF.
  std::lock_guard<std::mutex> lock(mu_);
  conns_.clear();
  return Status::Ok();
}

Result<std::unique_ptr<PipeEndpoint>> Wdogd::Connect(SimProcess process) {
  if (stop_.Requested()) {
    return FailedPreconditionError("wdogd has been stopped");
  }
  PipeOptions pipe_options;
  pipe_options.injector = options_.injector;
  pipe_options.site = "wdog.pipe";
  PipePair pair = CreatePipePair(clock_, pipe_options);
  auto conn = std::make_unique<Conn>();
  conn->pipe = std::move(pair.first);
  conn->process = std::move(process);
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn->id = next_conn_id_++;
    conns_[conn->id] = std::move(conn);
    metrics_->GetGauge("wdogd.clients")->Set(static_cast<double>(conns_.size()));
  }
  wake_.Notify();
  return std::move(pair.second);
}

DurationNs Wdogd::BackoffFor(int respawns) const {
  double backoff = static_cast<double>(options_.policy.restart_backoff);
  for (int i = 0; i < respawns; ++i) {
    backoff *= options_.policy.backoff_multiplier;
  }
  return static_cast<DurationNs>(backoff);
}

void Wdogd::Journal(const ResetRecord& record) {
  if (options_.journal_disk != nullptr) {
    const Status append = options_.journal_disk->Append(
        options_.journal_path, ResetRecord::Encode(record) + "\n");
    if (!append.ok()) {
      WDG_LOG(kWarn) << "wdogd journal append failed: " << append.ToString();
    }
  }
}

void Wdogd::ScheduleRestart(Conn& conn, ResetCause cause, TimeNs now) {
  if (conn.dead || conn.unsubscribed || conn.restart_pending) {
    return;
  }
  conn.restart_pending = true;
  conn.pending_cause = cause;
  const auto it = respawns_by_name_.find(conn.name);
  const int respawns = it == respawns_by_name_.end() ? 0 : it->second;
  conn.restart_due = now + BackoffFor(respawns);
}

void Wdogd::HandleFrame(Conn& conn, const Frame& frame, TimeNs now,
                        std::vector<PendingAction>& actions) {
  PipeEndpoint* pipe = conn.pipe.get();
  switch (frame.type) {
    case FrameType::kSubscribe: {
      conn.name = frame.name.empty() ? "client-" + std::to_string(conn.id) : frame.name;
      const DurationNs requested =
          frame.deadline > 0 ? frame.deadline : options_.policy.default_deadline;
      conn.deadline = std::clamp(requested, options_.policy.min_deadline,
                                 options_.policy.max_deadline);
      conn.last_kick = now;
      conn.warned = false;
      conn.subscribed = true;
      Frame ack;
      ack.type = FrameType::kSubscribeAck;
      ack.client_id = conn.id;
      ack.deadline = conn.deadline;
      actions.push_back({[pipe, ack] { (void)pipe->Write(EncodeFrame(ack)); }});
      break;
    }
    case FrameType::kKick: {
      if (!conn.subscribed || conn.unsubscribed) {
        break;
      }
      conn.last_kick = now;
      conn.warned = false;
      ++conn.kicks;
      kicks_.fetch_add(1, std::memory_order_relaxed);
      metrics_->GetCounter("wdogd.kicks")->Increment();
      // A live kick re-arms the ladder: a pending missed-kick restart whose
      // backoff has not yet fired is forgiven. Crash/protocol escalations
      // cannot be forgiven this way — their pipes are already broken.
      conn.restart_pending = false;
      Frame ack;
      ack.type = FrameType::kKickAck;
      ack.seq = frame.seq;
      actions.push_back({[pipe, ack] { (void)pipe->Write(EncodeFrame(ack)); }});
      break;
    }
    case FrameType::kUnsubscribe: {
      // Voluntary, clean departure: wins over any not-yet-fired escalation.
      conn.unsubscribed = true;
      conn.restart_pending = false;
      conn.dead = true;
      Frame ack;
      ack.type = FrameType::kUnsubscribeAck;
      actions.push_back({[pipe, ack] { (void)pipe->Write(EncodeFrame(ack)); }});
      break;
    }
    case FrameType::kSubscribeAck:
    case FrameType::kKickAck:
    case FrameType::kWarn:
    case FrameType::kUnsubscribeAck:
      // Supervisor-to-client frames arriving at the supervisor: nonsense.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ScheduleRestart(conn, ResetCause::kProtocolErrorRestart, now);
      break;
  }
}

void Wdogd::DrainConn(Conn& conn, TimeNs now, std::vector<PendingAction>& actions) {
  if (conn.reader.poisoned()) {
    return;  // escalated when it went bad; only the restart is left to run
  }
  bool eof = false;
  for (;;) {
    auto chunk = conn.pipe->TryRead(4096);
    if (!chunk.ok()) {
      eof = true;
      break;
    }
    if (chunk->empty()) {
      break;
    }
    conn.reader.Append(*chunk);
  }
  for (;;) {
    auto next = conn.reader.Next();
    if (!next.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      WDG_LOG(kWarn) << "wdogd: dropping client " << conn.id << " ("
                     << conn.name << "): " << next.status().ToString();
      ScheduleRestart(conn, ResetCause::kProtocolErrorRestart, now);
      break;
    }
    if (!next->has_value()) {
      break;
    }
    HandleFrame(conn, **next, now, actions);
  }
  // Judge the hangup only after the dying client's final frames are in: a
  // clean unsubscriber already arranged teardown; anyone else hung up
  // without saying goodbye — that is a crash. The scheduled restart also
  // guards against counting the same EOF again next pass.
  if (eof && !conn.unsubscribed && !conn.restart_pending && !conn.dead) {
    crashes_.fetch_add(1, std::memory_order_relaxed);
    ScheduleRestart(conn, ResetCause::kCrashRestart, now);
  }
}

void Wdogd::FireEscalations(TimeNs now, std::vector<PendingAction>& actions) {
  const EscalationPolicy& policy = options_.policy;
  const bool warn_rung = policy.warn_misses >= 1 &&
                         (policy.restart_misses < 1 || policy.warn_misses < policy.restart_misses);
  for (auto& [id, conn_ptr] : conns_) {
    Conn& conn = *conn_ptr;
    if (conn.dead || conn.unsubscribed || !conn.subscribed) {
      continue;
    }
    const int64_t misses = (now - conn.last_kick) / std::max<DurationNs>(conn.deadline, 1);
    if (warn_rung && !conn.warned && !conn.restart_pending && misses >= policy.warn_misses) {
      conn.warned = true;
      warns_.fetch_add(1, std::memory_order_relaxed);
      metrics_->GetCounter("wdogd.warns")->Increment();
      ResetRecord record;
      record.at = now;
      record.client = conn.name;
      record.cause = ResetCause::kWarn;
      record.silence = now - conn.last_kick;
      const auto respawn_it = respawns_by_name_.find(conn.name);
      record.respawns = respawn_it == respawns_by_name_.end() ? 0 : respawn_it->second;
      record.detail = "missed " + std::to_string(policy.warn_misses) + " kick deadline(s)";
      Frame warn;
      warn.type = FrameType::kWarn;
      warn.message = record.detail;
      PipeEndpoint* pipe = conn.pipe.get();
      SimProcess* process = &conn.process;
      actions.push_back({[this, pipe, warn, process, record] {
        (void)pipe->Write(EncodeFrame(warn));
        if (process->on_warn) {
          process->on_warn();
        }
        Journal(record);
      }});
    }
    if (policy.restart_misses >= 1 && misses >= policy.restart_misses) {
      ScheduleRestart(conn, ResetCause::kMissedKickRestart, now);  // no-op once pending
    }
  }

  // Fire escalations whose backoff has elapsed.
  for (auto& [id, conn_ptr] : conns_) {
    Conn& conn = *conn_ptr;
    if (conn.dead || !conn.restart_pending || conn.restart_due > now) {
      continue;
    }
    conn.restart_pending = false;
    conn.dead = true;
    const int respawns_used =
        respawns_by_name_.count(conn.name) ? respawns_by_name_[conn.name] : 0;
    ResetRecord record;
    record.at = now;
    record.client = conn.name;
    record.silence = now - conn.last_kick;
    SimProcess process = conn.process;  // survives the conn sweep below
    metrics_->GetHistogram("wdogd.silence_at_escalation_ms")
        ->Record(static_cast<double>(record.silence) / 1e6);
    if (respawns_used >= options_.policy.max_respawns) {
      // Budget spent: the big hammer. The slate is wiped — a rebooted
      // process starts with a fresh respawn budget.
      respawns_by_name_[conn.name] = 0;
      reboots_.fetch_add(1, std::memory_order_relaxed);
      metrics_->GetCounter("wdogd.reboots")->Increment();
      record.cause = ResetCause::kRespawnExhaustedReboot;
      record.respawns = respawns_used;
      record.detail = std::string("respawn budget exhausted after ") +
                      ResetCauseName(conn.pending_cause);
      actions.push_back({[this, process, record] {
        Journal(record);
        if (process.reboot) {
          process.reboot();
        }
      }});
    } else {
      respawns_by_name_[conn.name] = respawns_used + 1;
      restarts_.fetch_add(1, std::memory_order_relaxed);
      metrics_->GetCounter("wdogd.restarts")->Increment();
      record.cause = conn.pending_cause;
      record.respawns = respawns_used + 1;
      record.detail = "restart " + std::to_string(respawns_used + 1) + "/" +
                      std::to_string(options_.policy.max_respawns);
      actions.push_back({[this, process, record] {
        Journal(record);
        if (process.restart) {
          const Status restarted = process.restart();
          if (!restarted.ok()) {
            ResetRecord failure = record;
            failure.cause = ResetCause::kRestartFailed;
            failure.detail = restarted.ToString();
            Journal(failure);
          }
        }
      }});
    }
  }
}

void Wdogd::Loop() {
  while (!stop_.Requested()) {
    std::vector<PendingAction> actions;
    const TimeNs now = clock_.NowNs();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, conn] : conns_) {
        if (!conn->dead) {
          DrainConn(*conn, now, actions);
        }
      }
      FireEscalations(now, actions);
      // Sweep dead connections: ownership moves into an action so the pipe
      // closes off the lock, after any queued ack writes.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->second->dead) {
          std::shared_ptr<Conn> doomed(it->second.release());
          actions.push_back({[doomed] {}});
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      metrics_->GetGauge("wdogd.clients")->Set(static_cast<double>(conns_.size()));
    }
    for (PendingAction& action : actions) {
      action.run();
    }
    actions.clear();  // destroys swept conns off the lock
    wake_.WaitFor(options_.poll);
  }
}

std::vector<Wdogd::ClientInfo> Wdogd::Clients() const {
  std::vector<ClientInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    ClientInfo info;
    info.id = conn->id;
    info.name = conn->name;
    info.subscribed = conn->subscribed;
    info.restart_pending = conn->restart_pending;
    info.deadline = conn->deadline;
    info.kicks = conn->kicks;
    const auto it = respawns_by_name_.find(conn->name);
    info.respawns = it == respawns_by_name_.end() ? 0 : it->second;
    out.push_back(std::move(info));
  }
  return out;
}

int64_t Wdogd::kick_count() const { return kicks_.load(std::memory_order_relaxed); }
int64_t Wdogd::warn_count() const { return warns_.load(std::memory_order_relaxed); }
int64_t Wdogd::restart_count() const { return restarts_.load(std::memory_order_relaxed); }
int64_t Wdogd::reboot_count() const { return reboots_.load(std::memory_order_relaxed); }
int64_t Wdogd::crash_count() const { return crashes_.load(std::memory_order_relaxed); }
int64_t Wdogd::protocol_error_count() const {
  return protocol_errors_.load(std::memory_order_relaxed);
}

Result<std::vector<ResetRecord>> Wdogd::ReadJournal() const {
  if (options_.journal_disk == nullptr) {
    return FailedPreconditionError("wdogd has no journal disk configured");
  }
  WDG_ASSIGN_OR_RETURN(const std::string data,
                       options_.journal_disk->ReadAll(options_.journal_path));
  std::vector<ResetRecord> records;
  for (const std::string& line : StrSplit(data, '\n')) {
    if (line.empty()) {
      continue;
    }
    auto record = ResetRecord::Decode(line);
    if (record.ok()) {
      records.push_back(std::move(*record));
    }
  }
  return records;
}

}  // namespace wdg
