#include "job/task_worker.h"

#include "common/logging.h"
#include "runtime/sim_cluster.h"

namespace fuxi::job {

TaskWorker::TaskWorker(runtime::SimCluster* cluster, AppId app,
                       std::string task, WorkerId worker, MachineId machine,
                       NodeId self, NodeId am_node, uint64_t seed)
    : Actor(&cluster->sim()),
      cluster_(cluster),
      app_(app),
      task_(std::move(task)),
      worker_(worker),
      machine_(machine),
      self_(self),
      am_node_(am_node),
      rng_(seed) {
  endpoint_.Handle<ExecuteInstanceRpc>(
      [this](const net::Envelope&, const ExecuteInstanceRpc& rpc) {
        if (alive_) OnExecute(rpc);
      });
  endpoint_.Handle<CancelInstanceRpc>(
      [this](const net::Envelope&, const CancelInstanceRpc& rpc) {
        if (alive_) OnCancel(rpc);
      });
}

TaskWorker::~TaskWorker() { Kill(); }

void TaskWorker::Start() {
  FUXI_CHECK(!alive_);
  alive_ = true;
  cluster_->network().Register(self_, &endpoint_);
  WorkerReadyRpc ready;
  ready.app = app_;
  ready.task = task_;
  ready.worker = worker_;
  ready.machine = machine_;
  ready.worker_node = self_;
  cluster_->network().Send(self_, am_node_, ready);
  StatusTick();
}

void TaskWorker::Kill() {
  if (!alive_) return;
  alive_ = false;
  exec_timer_.Cancel();
  status_timer_.Cancel();
  cluster_->network().Unregister(self_);
}

void TaskWorker::OnExecute(const ExecuteInstanceRpc& rpc) {
  if (running_instance_ >= 0) {
    // Already busy: the master's view is stale; our next status report
    // will correct it.
    return;
  }
  running_instance_ = rpc.instance;
  running_is_backup_ = rpc.is_backup;
  started_at_ = Now();
  // Execution-time model: base compute, scaled by the machine's
  // slowdown factor (SlowMachine faults) and the read-locality factor,
  // with +/-25% workload jitter.
  double duration = rpc.base_seconds * rpc.locality_factor *
                    cluster_->machine_slowdown(machine_) *
                    (0.75 + 0.5 * rng_.NextDouble());
  if (duration < 1e-6) duration = 1e-6;
  expected_duration_ = duration;
  exec_timer_ = After(duration, [this] {
    if (alive_) FinishCurrent();
  });
}

void TaskWorker::OnCancel(const CancelInstanceRpc& rpc) {
  if (running_instance_ != rpc.instance) return;
  exec_timer_.Cancel();
  running_instance_ = -1;
  running_is_backup_ = false;
}

void TaskWorker::FinishCurrent() {
  FUXI_CHECK_GE(running_instance_, 0);
  InstanceDoneRpc done;
  done.app = app_;
  done.task = task_;
  done.instance = running_instance_;
  done.is_backup = running_is_backup_;
  done.worker = worker_;
  done.machine = machine_;
  done.elapsed = Now() - started_at_;
  completed_.push_back(running_instance_);
  running_instance_ = -1;
  running_is_backup_ = false;
  // If the JobMaster is down this message is lost; the periodic status
  // report (carrying `completed_`) repairs that after failover.
  cluster_->network().Send(self_, am_node_, done);
}

void TaskWorker::StatusTick() {
  if (!alive_) return;
  SendStatus();
  // The handle is cancelled on Kill so no callback outlives the worker.
  status_timer_ = After(kStatusInterval, [this] { StatusTick(); });
}

void TaskWorker::SendStatus() {
  WorkerStatusReportRpc status;
  status.app = app_;
  status.task = task_;
  status.worker = worker_;
  status.machine = machine_;
  status.worker_node = self_;
  status.running_instance = running_instance_;
  if (running_instance_ >= 0 && expected_duration_ > 0) {
    status.progress =
        std::min(1.0, (Now() - started_at_) / expected_duration_);
  }
  status.completed = completed_;
  cluster_->network().Send(self_, am_node_, status);
}

}  // namespace fuxi::job
