(** [hetmig fleet]: the warehouse-scale mixed-ISA fleet scenario, a
    preset of the {!Cluster} simulator with its policy fixed to
    {!Cluster.Balance}. It has no simulation code of its own: {!run}
    converts the config to a {!Cluster.config} (the power cap stays at
    {!Cluster.default}'s, which no fleet policy reads) and runs
    {!Cluster.run}. *)

type placement = Cluster.placement = Least_loaded | Round_robin

val placement_name : placement -> string

type config = {
  jobs : int;
  seed : int;
  mean_interarrival_s : float;  (** open-loop Poisson arrivals *)
  epoch_s : float;  (** control-traffic batching epoch = lookahead *)
  placement : placement;
  migration : bool;  (** epoch-tick load-balancing migration *)
  fail_rate : float;
      (** per-phase failure probability; phases retry up to a budget,
          then the job fails *)
  topology : Machine.Topology.t;  (** at least 2 nodes; {!run} validates *)
}

val default : nodes:int -> jobs:int -> seed:int -> config
(** One flat rack of alternating x86/arm64 nodes whose local link is
    the paper's 10GbE point-to-point interconnect: every distinct pair
    sees the pre-cluster fleet cost model exactly, so earlier fleet
    scenarios keep their meaning. Least-loaded placement with migration,
    0.5 s mean interarrival, 0.25 s epoch, no failures. *)

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

val run : ?domains:int -> config -> result
(** Deterministic: the result is a pure function of [config], not of
    [domains]. *)

val run_audited : ?domains:int -> config -> result * Sim.Islands.capture
(** Like {!run}, with the runtime's audit capture enabled for the
    [hetmig audit] passes (see {!Cluster.run_audited}). The simulated
    result is identical to {!run}'s. *)

val render : config -> result -> string
(** Byte-stable text report (no wall-clock, no domain count): the
    artifact CI diffs between [--seq] and [--islands N] runs. *)
