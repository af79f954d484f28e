(** Per-ISA performance model.

    Execution time in the simulator is instructions / effective-MIPS, where
    effective MIPS depends on the ISA and on the workload's instruction mix.
    The relative numbers are calibrated so that the x86 Xeon E5-1650 v2
    outperforms the APM X-Gene 1 by the factors reported for server
    workloads in the paper's references [8, 38] (roughly 2-4x depending on
    the mix) — the paper's "worst case utilization scenario for the ARM
    machine". *)

type category = Compute | Memory | Branch | Mixed

val categories : category list
val category_to_string : category -> string

type t = {
  arch : Arch.t;
  frequency_hz : float;
  ipc : category -> float;
}

val of_arch : Arch.t -> t

val instructions_per_s : t -> category -> float
(** [frequency_hz *. ipc cat]: instructions one core retires per second
    for the given mix. *)

val mips : t -> category -> float
(** Effective millions of instructions per second for the given mix. *)

val seconds_for : t -> category -> instructions:float -> float
(** Simulated wall time to retire [instructions] of the given mix on one
    core. *)

val speedup_vs : t -> t -> category -> float
(** [speedup_vs fast slow cat]: how many times faster [fast] runs a
    [cat]-dominated workload than [slow]. *)
