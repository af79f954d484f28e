(** Per-ISA compiler backend model.

    For each function and ISA the backend decides (a) the machine-code size
    of the function (needed by the linker and alignment tool) and (b) the
    stack frame layout: which locals live in callee-saved registers and
    which in stack slots, and at which offsets. The paper deliberately lets
    each backend optimize frame layout for its own ABI — this is exactly why
    stacks are not in a common format and must be transformed at migration
    time (Section 4). *)

type location =
  | In_register of Isa.Register.t
      (** a general-purpose {e or} vector register *)
  | In_slot of int
      (** the value occupies [\[FP - k, FP - k + size)]: [k] is the byte
          offset below the frame pointer of the value's lowest address *)

type homes
(** [locations] resolved into a map once, at {!frame_layout}. *)

type frame = {
  arch : Isa.Arch.t;
  fname : string;
  frame_bytes : int;  (** total frame size, ABI-aligned *)
  locations : (string * location) list;  (** every local's home *)
  callee_saved_used : Isa.Register.t list;
      (** registers the prologue saves (GPRs then vector regs), in save
          order *)
  save_offsets : (Isa.Register.t * int) list;
      (** byte offset below FP of each saved register's slot (vector
          saves are 16 bytes wide and 16-aligned) *)
  locals_bytes : int;
  homes : homes;
      (** answers {!location_of} while [locations] is physically the list
          it was built from; a frame rebuilt with other locations is
          searched linearly instead *)
}

val code_size : Isa.Arch.t -> Ir.Prog.func -> int
(** Estimated machine-code bytes. Structural (body shape), not dynamic:
    deterministic, differs across ISAs (fixed 4-byte ARM encoding vs
    variable x86 encoding, different spill code volume). *)

val frame_layout : Isa.Arch.t -> Ir.Prog.func -> frame
(** Allocate every local (params included) to a register or slot.
    Register allocation favours the most-referenced locals; the two ISAs
    differ in how many callee-saved registers are available (10 GPRs on
    ARM64 vs 5 on x86-64 besides the frame pointer; 8 callee-saved
    vector registers on ARM64 vs {e zero} on x86-64) and in slot
    assignment order, so layouts genuinely diverge. V128 locals get
    16-byte, 16-aligned slots when spilled. *)

val location_of : frame -> string -> location
(** The first binding of the name in [locations]. Raises [Not_found]. *)

val migration_point_cost : Isa.Arch.t -> int
(** Extra instructions executed per migration-point check: a call into the
    migration library plus a read of the shared vDSO flag page. *)
