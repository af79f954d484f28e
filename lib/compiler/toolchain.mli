(** The multi-ISA compiler toolchain driver (paper Figure 2).

    Pipeline: profile -> insert migration points -> per-ISA backends
    (code size + frame layout) -> link -> align symbols -> emit per-ISA
    ELFs, stackmaps, unwind rules, and the unified TLS layout. The output
    [binary] is everything the OS loader and the migration runtime need.

    Lookups by name ({!frame_of}, {!unwind_of}, {!stackmap_of},
    {!symbol_address}, {!plan}) answer from tables resolved once, at
    {!compile}, and owned by the value they describe: nothing outlives
    the binary, and no lookup takes a lock. A table answers only while the
    record in hand still carries the very list it was built from; a
    record rebuilt with other metadata ([{ per with stackmaps = ... }])
    is answered from that metadata, by a linear scan or a fresh build. *)

type index
(** The per-ISA lookup tables and interpreter plan. *)

type per_isa = {
  arch : Isa.Arch.t;
  obj : Binary.Obj.t;
  frames : (string * Backend.frame) list;  (** per function *)
  stackmaps : Stackmap.entry list;
  unwind : Unwind.rule list;
  elf : Binary.Elf.t;
  tls : Memsys.Tls.layout;
  index : index;  (** resolved from this record's own lists *)
}

type symbols
(** Symbol addresses resolved from [aligned]. *)

type t = {
  prog : Ir.Prog.t;  (** instrumented program *)
  aligned : Binary.Align.t;
  isas : per_isa list;
  migration_points : int;
  symbols : symbols;
}

val compile :
  ?budget:int -> ?arches:Isa.Arch.t list -> Ir.Prog.t -> t
(** Compile for the given ISAs (default: both). [budget] is the
    migration-point gap budget (default one scheduling quantum). Raises
    [Invalid_argument] on ill-formed programs (undefined variable uses,
    unknown callees, missing entry). *)

val for_arch : t -> Isa.Arch.t -> per_isa
(** Raises [Not_found]. *)

val frame_of : per_isa -> string -> Backend.frame
(** Raises [Not_found]. *)

val unwind_of : per_isa -> string -> Unwind.rule
(** Raises [Not_found]. *)

val stackmap_of :
  per_isa -> fname:string -> key:Stackmap.site_key -> Stackmap.entry option
(** {!Stackmap.find} over [per.stackmaps], answered from the index. *)

val symbol_address : t -> string -> int
(** Unified virtual address of a symbol. Raises [Not_found]. *)

val plan : t -> per_isa -> Plan.t
(** The interpreter plan of [per] within [t] (one of [t.isas]): the one
    resolved at {!compile} while the program, layout, frames and unwind
    rules are those it was built from, else a fresh one. *)

val natural_layouts : Ir.Prog.t -> (Isa.Arch.t * Binary.Layout.t) list
(** What a stock linker would produce per ISA, *without* symbol alignment
    — the "unaligned" baseline of Table 1. *)

val text_pages : t -> Isa.Arch.t -> int list
(** Page numbers of the (aliased) text section. *)
