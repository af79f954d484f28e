(** Pre-resolved execution plans for the reference interpreter
    ([Runtime.Interp]).

    One plan per binary and ISA holds, for every function, what the
    interpreter would otherwise look up by name in each executed frame:
    the callee-saved save list, each local's home (register or slot
    offset) with its lane count, each [Def]'s materialized lanes or its
    global / heap / local-address initializer, and each call site's
    callee and encoded return address. Executing a
    plan does no string lookups; heap allocations and local addresses are
    still produced per run, in program order.

    Building a plan never fails. A name that does not resolve becomes a
    step that raises, when execution reaches it, what the lookup it
    replaces raised: [Not_found] for an unknown local, global, callee,
    symbol, frame or unwind rule, and [Failure] for the address of a
    register-homed local. *)

type address = Resolved of int | Unresolved  (** raises [Not_found] when used *)

type home =
  | Reg of Isa.Register.t * int  (** register, lanes read *)
  | Slot of int * int  (** byte offset below FP, lanes read *)
  | Nowhere  (** not a local of the frame: raises [Not_found] when used *)

type value =
  | Lanes of int64 array
      (** the deterministic value of a scalar local, or a global's address *)
  | Heap of int  (** a fresh heap block of that many bytes, per run *)
  | Local_address of int  (** FP minus that offset, per frame *)
  | Raise of exn  (** deferred resolution error *)

type step =
  | Def of home * value
  | Use of home
  | Mig_point of Stackmap.site_key
  | Call of {
      key : Stackmap.site_key;
      args : home array;
      ra : address;
      callee : int;  (** index into [funcs]; negative if unknown *)
    }
  | Loop of step array  (** [Work] statements have no step *)

type func = {
  fname : string;
  missing : bool;
      (** no frame layout or unwind rule: entering raises [Not_found] *)
  frame_bytes : int;
  saves : (Isa.Register.t * int * int) array;
      (** callee-saved register, byte offset below FP, lanes — in save order *)
  params : home array;
  body : step array;
}

type t = {
  funcs : func array;  (** in [prog.funcs] order *)
  entry : int;  (** index of the entry function; negative if unknown *)
}

val build :
  Isa.Arch.t ->
  Ir.Prog.t ->
  frame_of:(string -> Backend.frame option) ->
  unwind_of:(string -> Unwind.rule option) ->
  address_of:(string -> int option) ->
  t
(** Resolve every function of the program for one ISA. Names resolve
    as [List.assoc] would: the first binding wins. *)

val index_of : Ir.Prog.t -> string -> int
(** Position of the function's first binding in [prog.funcs], or [-1]. *)

val func : t -> int -> func
(** Raises [Not_found] for a negative index. *)
