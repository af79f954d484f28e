(* A fixed piece of work that measures how fast the host runs right now.

   The host is shared: for stretches of seconds to minutes, other
   tenants slow every pass by up to 2x, and no run is long enough to be
   sure of catching a quiet moment. What slows the passes is contention
   for caches and memory, not lost CPU time (user time stays equal to
   wall time, and a pure arithmetic loop barely moves). So this kernel
   does what the workloads' hot paths do: it allocates short-lived
   balanced-tree and hash-table nodes, which the minor and major GC then
   collect, and it chases pointers through a working set far larger
   than the private caches. The benchmark times it between passes and
   scales its host times by [nominal_s] / the fastest time it took.

   The kernel depends on the standard library alone, so no change to the
   program can make it faster or slower, short of a change to the GC
   settings of the whole process. *)

module M = Map.Make (Int)

(* The kernel's time at the fastest on the 2-core host the benchmark was
   tuned on: scaled host times read as seconds on that host. *)
let nominal_s = 0.1

let lcg x = ((x * 1103515245) + 12345) land 0x3FFFFFFF

(* One cycle through all [chase_slots] slots (Sattolo's shuffle), in a
   Bigarray so that the GC never scans it. 32 MB: far past the L2. *)
let chase_slots = 1 lsl 22

let chase_ring =
  lazy
    (let a = Bigarray.(Array1.create int c_layout chase_slots) in
     for i = 0 to chase_slots - 1 do
       a.{i} <- i
     done;
     let x = ref 0x2545F491 in
     for i = chase_slots - 1 downto 1 do
       x := lcg !x;
       let j = !x mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let work () =
  let ring = Lazy.force chase_ring in
  let x = ref 12345 and m = ref M.empty and h = Hashtbl.create 16 in
  for i = 1 to 60_000 do
    x := lcg !x;
    m := M.add (!x land 0xFFFFF) i !m;
    Hashtbl.replace h (!x land 0xFFFF) (float_of_int i)
  done;
  let sorted = List.sort compare (M.fold (fun k v a -> (k + v) :: a) !m []) in
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := ring.{!p}
  done;
  ignore (Sys.opaque_identity (sorted, h, !p))

(* Host seconds of one run of the kernel. It starts on a collected heap,
   so that how far the GC had got through the garbage a pass left does
   not show in its time. *)
let time () =
  ignore (Lazy.force chase_ring);
  Gc.full_major ();
  let t0 = Span.now_ns () in
  work ();
  Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9
