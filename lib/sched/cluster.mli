(** The warehouse simulator: jobs scheduled over a {!Machine.Topology}
    by policies that choose *which node* as well as *which ISA*. Both
    [hetmig cluster] and [hetmig fleet] run it; {!Fleet} is a preset
    that fixes the policy to {!Balance}.

    Island 0 is the scheduler at the cluster head, islands 1..N the
    topology's nodes, control traffic batched per [epoch_s] and carried
    over its rack-fabric path, the per-edge minimum delay forming the
    runtime's topology-aware lookahead matrix. Migration transfers and
    cold-set page faults are path-dependent: cross-rack moves pay the
    aggregation hop. The report is a pure function of the config:
    domain count never changes a byte. *)

type placement = Least_loaded | Round_robin

val placement_name : placement -> string

type policy =
  | Pack_power_cap
      (** power-capped bin packing: fewest, fullest nodes under a
          global projected-power budget; admission blocks at the cap *)
  | Edp_migrate
      (** energy/EDP-aware placement (throughput per watt for the
          job's category) plus per-epoch global dynamic migration of
          the worst-placed job, cross-ISA and cross-rack *)
  | Work_steal
      (** round-robin local placement; idle nodes steal from the
          most-loaded victim, in-rack victims preferred *)
  | Balance of { placement : placement; migration : bool }
      (** the fleet preset: [placement] by normalised load or round
          robin; with [migration], one job per epoch moves from the most
          to the least loaded node *)

val policy_name : policy -> string

val policy_of_name : string -> policy option
(** The [hetmig cluster --policy] names; {!Balance} has none. *)

val all_policies : policy list
(** [Pack_power_cap; Edp_migrate; Work_steal]. *)

type config = {
  topology : Machine.Topology.t;
  jobs : int;
  seed : int;
  mean_interarrival_s : float;  (** open-loop Poisson arrivals *)
  epoch_s : float;  (** control-traffic batching epoch *)
  policy : policy;
  power_cap_w : float;
      (** [Pack_power_cap]: projected cluster power admission budget *)
  fail_rate : float;
      (** per-phase failure probability; a phase retries up to 3 times,
          then its job fails. At 0 no failure is ever drawn. *)
}

val default : topology:Machine.Topology.t -> jobs:int -> seed:int -> config
(** {!Edp_migrate}, 0.02 s mean interarrival, 0.25 s epoch, a power cap
    of 82.5 W per node, no failures. *)

type result = {
  completed : int;
  failed : int;  (** jobs that exhausted their phase retries *)
  retried_phases : int;
  migrations : int;
  steals : int;  (** jobs that landed on a node via work stealing *)
  deferred : int;  (** admissions blocked at least once by the power cap *)
  makespan : float;
  total_energy_j : float;
  energy_x86_j : float;
  energy_arm_j : float;
  edp : float;
  peak_power_w : float;  (** max projected cluster power at placement *)
  p50_latency_s : float;
  p99_latency_s : float;
  events : int;  (** simulation events executed *)
  windows : int;  (** conservative synchronization windows *)
}

(** Power-capped admission for {!Pack_power_cap}: is the projected
    cluster power — the sum in node order of each node's system power at
    its estimated thread load — within the cap once [extra] threads land
    on a candidate node? {!admits} answers in O(1) per candidate from a
    once-per-placement {!projected} base sum, falling back to the exact
    O(nodes) sum only when the estimate is within a rounding guard band
    of the cap, so its answer always equals the exact comparison. *)
module Admission : sig
  type t

  val create : Machine.Topology.t -> t

  val projected : t -> int array -> on:int -> extra:int -> float
  (** [projected t loads ~on ~extra]: exact projected power with
      [extra] more threads on node [on] ([on = -1] for none). *)

  val admits :
    t -> int array -> base:float -> cap:float -> on:int -> extra:int -> bool
  (** [admits t loads ~base ~cap ~on ~extra] where
      [base = projected t loads ~on:(-1) ~extra:0]: exactly
      [projected t loads ~on ~extra <= cap]. *)
end

val min_power_cap : Machine.Topology.t -> float
(** The smallest [power_cap_w] under which a job of the pool's largest
    thread count can be placed on an otherwise idle cluster. Below it,
    {!Pack_power_cap} admission could block forever. *)

val run : ?domains:int -> config -> result
(** Deterministic: the result is a pure function of [config], not of
    [domains]. Raises [Invalid_argument] for a topology with fewer than
    2 nodes, [jobs < 1], non-positive [epoch_s]/[power_cap_w], or a
    {!Pack_power_cap} [power_cap_w] below {!min_power_cap}. *)

val run_audited : ?domains:int -> config -> result * Sim.Islands.capture
(** Like {!run}, with the runtime's audit capture enabled (ownership
    map: scheduler island owns resource 0, node island [i+1] owns
    resource [i+1]) for the [hetmig audit] passes. Capture is pure
    observation — the result is identical to {!run}'s. *)

val render : config -> result -> string
(** Byte-stable text report (no wall-clock, no domain count): the
    artifact CI diffs between [--seq] and [--islands N] runs. *)

val render_report :
  header:string ->
  counts:string ->
  ?extra:string ->
  Machine.Topology.t ->
  result ->
  string
(** The report layout every preset shares: [header], the topology,
    [counts], makespan and energy, [extra] (default none), latency
    quantiles and runtime counters. Each given line ends in a newline. *)
