(* The site mapping is compiler metadata (Compiler.Ra_encoding); kept
   here under its runtime name. *)
include Compiler.Ra_encoding
