(* Sim.Prng against a golden captured from the boxed-Int64 generator
   it replaced, and the allocation bound the unboxed state buys. Every
   float is printed as a hex float and every int64 in hex, so a match
   is bit-for-bit. *)

let seeds = [ 0; 7; 42 ]
let n = 64

(* The golden text for one seed: one line per drawer, [n] values each,
   every drawer on a fresh generator from [seed]. *)
let render_seed b seed =
  let line name f =
    let t = Sim.Prng.create seed in
    Printf.bprintf b "seed=%d %s:" seed name;
    for i = 0 to n - 1 do
      Printf.bprintf b " %s" (f t i)
    done;
    Buffer.add_char b '\n'
  in
  let i64 = Printf.sprintf "%Lx" and fl = Printf.sprintf "%h" in
  line "next_int64" (fun t _ -> i64 (Sim.Prng.next_int64 t));
  line "int" (fun t i -> string_of_int (Sim.Prng.int t ((i * 7919) + 1)));
  line "int_max" (fun t _ -> string_of_int (Sim.Prng.int t max_int));
  line "int_in" (fun t i -> string_of_int (Sim.Prng.int_in t (-i) (i * 3)));
  line "float" (fun t _ -> fl (Sim.Prng.float t 1.0));
  line "float_in" (fun t _ -> fl (Sim.Prng.float_in t (-2.5) 7.25));
  line "bool" (fun t _ -> if Sim.Prng.bool t then "1" else "0");
  line "exponential" (fun t _ -> fl (Sim.Prng.exponential t ~mean:0.02));
  line "gaussian" (fun t _ -> fl (Sim.Prng.gaussian t ~mean:1.0 ~stddev:0.5));
  line "lognormal" (fun t _ -> fl (Sim.Prng.lognormal t ~mu:0.0 ~sigma:1.0));
  line "lognormal_of_seed" (fun _ i ->
      fl (Sim.Prng.lognormal_of_seed ((seed * 1000) + i) ~mu:(-1.0) ~sigma:0.5));
  line "split" (fun t _ ->
      let c = Sim.Prng.split t in
      i64 (Sim.Prng.fingerprint c) ^ "/" ^ i64 (Sim.Prng.next_int64 c));
  line "copy" (fun t _ ->
      let c = Sim.Prng.copy t in
      ignore (Sim.Prng.next_int64 t);
      i64 (Sim.Prng.next_int64 c));
  line "fingerprint" (fun t i ->
      for _ = 0 to i mod 3 do
        ignore (Sim.Prng.next_int64 t)
      done;
      i64 (Sim.Prng.fingerprint t));
  line "draws_between" (fun t i ->
      let before = Sim.Prng.fingerprint t in
      for _ = 1 to i do
        ignore (Sim.Prng.float t 1.0)
      done;
      string_of_int
        (Sim.Prng.draws_between ~before ~after:(Sim.Prng.fingerprint t)));
  line "shuffle" (fun t _ ->
      let a = Array.init 8 Fun.id in
      Sim.Prng.shuffle t a;
      String.concat "" (Array.to_list (Array.map string_of_int a)))

let render () =
  let b = Buffer.create 65536 in
  List.iter (render_seed b) seeds;
  Buffer.contents b

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden () =
  let expected = read_file "prng_golden.txt" in
  let got = render () in
  let lines s = String.split_on_char '\n' s in
  List.iter2
    (fun e g -> Alcotest.(check string) "golden line" e g)
    (lines expected) (lines got)

(* A draw keeps its state in unboxed storage, so 10k bounded draws
   allocate nothing per draw (the reading itself costs a few words). *)
let int_draws_allocate_nothing () =
  let t = Sim.Prng.create 42 in
  let draws = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Sys.opaque_identity (Sim.Prng.int t 1000))
  done;
  let words = Gc.minor_words () -. before in
  let per_draw = words /. float_of_int draws in
  if per_draw >= 1.0 then
    Alcotest.failf "Prng.int allocated %.2f minor words per draw" per_draw

let suite =
  [
    ("prng matches the captured golden", `Quick, golden);
    ("prng int draws allocate under 1 word", `Quick, int_draws_allocate_nothing);
  ]
