(** CLI-boundary validation for the simulation front ends.

    Result-returning checks so [bin/hetmig_cli] can print the message
    and exit 2 while unit tests exercise the exact messages in-process.
    Error strings name the flag and the offending value. *)

val at_least : what:string -> min:int -> int -> (int, string) result
val positive_float : what:string -> float -> (float, string) result
(** Finite and strictly positive. *)

val min_epoch_s : float
(** 1e-3 s: the floor {!epoch} enforces. *)

val epoch : float -> (float, string) result
(** [--epoch] for [cluster], [fleet] and [serve]: finite and at least
    {!min_epoch_s}. The epoch is the island runtime's lookahead, so the
    number of windows a run takes grows as 1/epoch; below the floor a
    run may not finish. *)

val probability : what:string -> float -> (float, string) result
(** Finite and in [0, 1]. *)

val islands : int option -> (int option, string) result
(** [None] (pick a default) is always valid; [Some d] needs [d >= 1]. *)

val crash_spec : string -> (Faults.Plan.crash, string) result
(** Parse ["NODE@TIME"], naming the token that broke: a non-integer
    node, a non-float time, a negative node or time, or a malformed
    shape each get their own message. *)

val crashes_in_range :
  nodes:int -> Faults.Plan.crash list -> (unit, string) result
(** Reject crash specs naming nodes the fleet does not have — formerly
    silently dropped or a deep [Invalid_argument]. *)

val topology :
  nodes:int -> racks:int -> mix_name:string -> (Machine.Topology.t, string) result
(** Build the rack topology the fleet/cluster CLI knobs describe.
    [racks = 1] is the flat pre-cluster topology whose single hop is
    the paper's 10GbE point-to-point interconnect; more racks use the
    datacenter-grade ToR/aggregation defaults. [nodes] must divide
    evenly into [racks]. *)

val power_cap : topology:Machine.Topology.t -> float -> (float, string) result
(** [--power-cap] for [pack-power-cap]: positive and at least
    {!Cluster.min_power_cap}, which the message names. *)

val trace_file : string -> (string, string) result
(** [--trace-file]: the file opens and every line parses
    ({!Arrival.check_file}); the message names the flag, the path and
    the offending line. *)
