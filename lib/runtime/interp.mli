(** Reference interpreter over compiled multi-ISA binaries.

    Executes a program on one ISA with full fidelity at the state level:
    concrete frame addresses per the ABI, callee-saved register save and
    restore per the unwind rules, parameter passing through argument
    registers, and deterministic materialization of local values (so the
    same program produces identical live values on both ISAs — the
    precondition for checking stack transformation end-to-end).

    Loops are traversed once: local-variable state after iteration [n]
    equals state after iteration 1 because definitions are deterministic,
    so suspension states are independent of trip counts. Timing is *not*
    modeled here — the simulator's cost models own that.

    Execution walks the binary's pre-resolved plan ({!Compiler.Plan},
    via {!Compiler.Toolchain.plan}): no name is looked up per frame.
    Plans are per binary, built once at compile and dropped with it;
    there is no global memo to fill or clear. A binary whose metadata
    was rebuilt after compiling runs on a plan built fresh for the
    call. *)

val state_at :
  Compiler.Toolchain.t ->
  Isa.Arch.t ->
  fname:string ->
  mig_id:int ->
  Thread_state.t option
(** Run from the entry point until the given migration point fires; return
    the suspended thread state, or [None] if the point is never reached. *)

val run_to_completion : Compiler.Toolchain.t -> Isa.Arch.t -> int
(** Execute the whole program; returns the number of migration-point
    checks executed (loops traversed once). Useful as a smoke test that
    call/return state handling balances. *)

val reachable_mig_sites : Compiler.Toolchain.t -> (string * int) list
(** All (function, migration point) pairs reachable from the entry. *)

val live_values :
  Compiler.Toolchain.t ->
  Thread_state.t ->
  Thread_state.frame ->
  (string * int64 array) list
(** Resolve the values of all live locals of a suspended frame, reading
    stack slots directly and locating register-allocated values through
    the callee-saved save areas of inner frames (the "walk down the call
    chain" of paper Section 5.3). Each value is its 64-bit lanes: one for
    scalars/pointers, two for V128 vectors. Sorted by name. *)
