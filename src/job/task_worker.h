#ifndef FUXI_JOB_TASK_WORKER_H_
#define FUXI_JOB_TASK_WORKER_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "job/messages.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace fuxi::runtime {
class SimCluster;
}

namespace fuxi::job {

/// A task worker process: executes instances handed to it by its
/// JobMaster, reports status periodically, and keeps running even when
/// the JobMaster is away (master failover transparency). Execution time
/// scales with the host machine's slowdown factor, which is how the
/// SlowMachine fault injection manifests.
class TaskWorker : public sim::Actor {
 public:
  /// Cadence of the status report to the JobMaster (virtual seconds);
  /// the report doubles as the worker's heartbeat.
  static constexpr double kStatusInterval = 2.0;

  TaskWorker(runtime::SimCluster* cluster, AppId app, std::string task,
             WorkerId worker, MachineId machine, NodeId self,
             NodeId am_node, uint64_t seed);
  ~TaskWorker() override;

  /// Registers on the network, announces readiness, starts the status
  /// loop.
  void Start();

  /// The process is killed (agent kill / machine halt). Idempotent.
  void Kill();

  bool alive() const { return alive_; }
  WorkerId worker_id() const { return worker_; }
  MachineId machine() const { return machine_; }
  int64_t running_instance() const { return running_instance_; }
  const std::vector<int64_t>& completed() const { return completed_; }

 private:
  void OnExecute(const ExecuteInstanceRpc& rpc);
  void OnCancel(const CancelInstanceRpc& rpc);
  void FinishCurrent();
  void StatusTick();
  void SendStatus();

  runtime::SimCluster* cluster_;
  AppId app_;
  std::string task_;
  WorkerId worker_;
  MachineId machine_;
  NodeId self_;
  NodeId am_node_;
  Rng rng_;

  bool alive_ = false;
  net::Endpoint endpoint_;
  int64_t running_instance_ = -1;
  bool running_is_backup_ = false;
  double started_at_ = 0;
  double expected_duration_ = 0;
  sim::EventHandle exec_timer_;
  sim::EventHandle status_timer_;
  std::vector<int64_t> completed_;
};

}  // namespace fuxi::job

#endif  // FUXI_JOB_TASK_WORKER_H_
