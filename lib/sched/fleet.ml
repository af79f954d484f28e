(* `hetmig fleet`: the "Instruction Set Migration at Warehouse Scale"
   scenario as a preset of the warehouse simulator, `Sched.Cluster`.
   The preset fixes the policy to [Cluster.Balance] (least-loaded or
   round-robin placement, optional hi->lo balancing migration), keeps
   the power cap at Cluster's default (no fleet policy reads it), and
   brings its own defaults and report header. *)

type placement = Cluster.placement = Least_loaded | Round_robin

let placement_name = Cluster.placement_name

type config = {
  jobs : int;
  seed : int;
  mean_interarrival_s : float;
  epoch_s : float;
  placement : placement;
  migration : bool;
  fail_rate : float;
  topology : Machine.Topology.t;
}

let default ~nodes ~jobs ~seed =
  {
    jobs;
    seed;
    mean_interarrival_s = 0.5;
    epoch_s = 0.25;
    placement = Least_loaded;
    migration = true;
    fail_rate = 0.0;
    topology =
      Machine.Topology.flat ~nodes
        ~interconnect:Machine.Interconnect.ethernet_10g ();
  }

let to_cluster cfg =
  {
    (Cluster.default ~topology:cfg.topology ~jobs:cfg.jobs ~seed:cfg.seed) with
    Cluster.mean_interarrival_s = cfg.mean_interarrival_s;
    epoch_s = cfg.epoch_s;
    policy =
      Cluster.Balance { placement = cfg.placement; migration = cfg.migration };
    fail_rate = cfg.fail_rate;
  }

type result = Cluster.result = {
  completed : int;
  failed : int;
  retried_phases : int;
  migrations : int;
  steals : int;
  deferred : int;
  makespan : float;
  total_energy_j : float;
  energy_x86_j : float;
  energy_arm_j : float;
  edp : float;
  peak_power_w : float;
  p50_latency_s : float;
  p99_latency_s : float;
  events : int;
  windows : int;
}

let run ?domains cfg = Cluster.run ?domains (to_cluster cfg)
let run_audited ?domains cfg = Cluster.run_audited ?domains (to_cluster cfg)

let render cfg r =
  let isa = Machine.Topology.isa_count cfg.topology in
  Cluster.render_report cfg.topology r
    ~header:
      (Printf.sprintf
         "fleet: nodes=%d (x86=%d arm64=%d) jobs=%d seed=%d epoch=%.3fs \
          placement=%s migration=%s fail-rate=%.3f\n"
         (Machine.Topology.nodes cfg.topology)
         (isa Isa.Arch.X86_64) (isa Isa.Arch.Arm64) cfg.jobs cfg.seed
         cfg.epoch_s (placement_name cfg.placement)
         (if cfg.migration then "on" else "off")
         cfg.fail_rate)
    ~counts:
      (Printf.sprintf "completed=%d failed=%d retried-phases=%d migrations=%d\n"
         r.completed r.failed r.retried_phases r.migrations)
