type category = Compute | Memory | Branch | Mixed

let categories = [ Compute; Memory; Branch; Mixed ]

let category_to_string = function
  | Compute -> "compute"
  | Memory -> "memory"
  | Branch -> "branch"
  | Mixed -> "mixed"

type t = { arch : Arch.t; frequency_hz : float; ipc : category -> float }

(* IPC figures chosen so the Xeon is ~2.9x faster on compute-bound, ~2.3x on
   memory-bound and ~2.5x on branchy code than the X-Gene 1, matching the
   server-workload comparisons the paper cites. *)
let xeon_ipc = function
  | Compute -> 2.0
  | Memory -> 0.8
  | Branch -> 1.2
  | Mixed -> 1.3

let xgene_ipc = function
  | Compute -> 1.0
  | Memory -> 0.5
  | Branch -> 0.7
  | Mixed -> 0.75

let of_arch arch =
  match arch with
  | Arch.X86_64 -> { arch; frequency_hz = 3.5e9; ipc = xeon_ipc }
  | Arch.Arm64 -> { arch; frequency_hz = 2.4e9; ipc = xgene_ipc }

let instructions_per_s t cat = t.frequency_hz *. t.ipc cat
let mips t cat = instructions_per_s t cat /. 1e6

let seconds_for t cat ~instructions =
  instructions /. instructions_per_s t cat

let speedup_vs fast slow cat =
  instructions_per_s fast cat /. instructions_per_s slow cat
