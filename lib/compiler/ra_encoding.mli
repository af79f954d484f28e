(** Return-address encoding.

    Within one ISA's binary a return address is the function's (unified)
    base address plus an ISA-specific byte offset of the instruction after
    the call. Because instruction encodings differ, the *offsets* differ
    between ISAs even though the bases coincide — this is why the
    stackmap metadata must map return addresses across architectures
    rather than copying them verbatim. *)

val site_offset : Isa.Arch.t -> fname:string -> key:Stackmap.site_key -> int
(** Deterministic per-ISA byte offset of the equivalence point within the
    function's code. Always positive, 4-aligned on ARM64. *)

val encode :
  Isa.Arch.t ->
  base_of:(string -> int) ->
  fname:string ->
  key:Stackmap.site_key ->
  int
(** Concrete return address for a suspended call / migration point. *)

val decode :
  Isa.Arch.t ->
  base_of:(string -> int) ->
  stackmaps:Stackmap.entry list ->
  int ->
  (string * Stackmap.site_key) option
(** Recover (function, site) from a concrete address by searching the
    metadata — what the runtime does when walking a source stack. *)
