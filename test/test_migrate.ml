(* Migration at every reachable point of every benchmark binary, against
   states captured before the interpreter ran on pre-resolved plans; the
   per-binary metadata index against tampered metadata; and the live heap
   across repeated compile-and-sweep rounds. *)

let checkb msg = Alcotest.check Alcotest.bool msg
let checks msg = Alcotest.check Alcotest.string msg

open Runtime

(* --- golden migration states ---------------------------------------------- *)

let kind_string = function
  | Ir.Liveness.At_call -> "call"
  | Ir.Liveness.At_mig_point -> "mig"

(* Everything observable about a thread state: its frame chain, PC,
   non-zero registers and every stack word ever written. *)
let state_string (st : Thread_state.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (f : Thread_state.frame) ->
      let kind, id = f.Thread_state.key in
      Printf.bprintf b "%s/%s#%d/%x/%x;" f.Thread_state.fname (kind_string kind)
        id f.Thread_state.fp f.Thread_state.sp)
    st.Thread_state.frames;
  Printf.bprintf b "pc=%Lx;" (Regfile.pc st.Thread_state.regs);
  List.iter
    (fun (r, v) -> Printf.bprintf b "%s=%Lx;" r v)
    (Regfile.nonzero st.Thread_state.regs);
  List.iter
    (fun (a, v) -> Printf.bprintf b "%x=%Lx;" a v)
    (Stack_mem.written_words st.Thread_state.stack);
  Buffer.contents b

let md5 s = Digest.to_hex (Digest.string s)

(* One line per binary x source ISA: digests over every reachable point of
   the suspended state (taken before the transformation writes the shared
   stack), of the transformation's cost fields, of the destination state,
   and of the verification results. *)
let golden_line name (tc : Compiler.Toolchain.t) arch =
  let sites = Interp.reachable_mig_sites tc in
  let src = Buffer.create 4096 and cost = Buffer.create 1024 in
  let dst = Buffer.create 4096 and verify = Buffer.create 256 in
  let reached = ref 0 and verified = ref 0 in
  List.iter
    (fun (fname, mig_id) ->
      Printf.bprintf src "%s#%d:" fname mig_id;
      match Interp.state_at tc arch ~fname ~mig_id with
      | None -> Buffer.add_string src "unreached\n"
      | Some st -> (
        incr reached;
        Buffer.add_string src (state_string st);
        Buffer.add_char src '\n';
        match Transform.transform tc st with
        | Error msg -> Printf.bprintf cost "error:%s\n" msg
        | Ok (d, c) ->
          Printf.bprintf cost "%d,%d,%d,%h\n" c.Transform.frames
            c.Transform.values_copied c.Transform.pointers_fixed
            c.Transform.latency_s;
          Buffer.add_string dst (state_string d);
          Buffer.add_char dst '\n';
          (match Transform.verify tc st d with
          | Ok () ->
            incr verified;
            Buffer.add_string verify "ok\n"
          | Error msg -> Printf.bprintf verify "error:%s\n" msg)))
    sites;
  Printf.sprintf "%s %s sites=%d reached=%d verified=%d src=%s cost=%s dst=%s verify=%s"
    name (Isa.Arch.to_string arch) (List.length sites) !reached !verified
    (md5 (Buffer.contents src)) (md5 (Buffer.contents cost))
    (md5 (Buffer.contents dst)) (md5 (Buffer.contents verify))

let golden_lines () =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun cls ->
          let tc = Hetmig.Het.compile_benchmark bench cls in
          let name = (Workload.Spec.spec bench cls).Workload.Spec.name in
          List.map (golden_line name tc) Isa.Arch.all)
        Workload.Spec.classes)
    Workload.Spec.all_benches

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let acc = ref [] in
      (try
         while true do
           acc := input_line ic :: !acc
         done
       with End_of_file -> ());
      List.rev !acc)

(* test/migrate_golden.txt: "#" comment lines, then one line per binary x
   ISA. On a mismatch the computed lines are left in
   migrate_golden.actual next to the running test for inspection. *)
let golden_states () =
  let expected =
    List.filter
      (fun l -> not (String.starts_with ~prefix:"#" l))
      (read_lines "migrate_golden.txt")
  in
  let actual = golden_lines () in
  if actual <> expected then begin
    let oc = open_out "migrate_golden.actual" in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc
  end;
  Alcotest.check Alcotest.int "one line per binary x ISA" (List.length expected)
    (List.length actual);
  List.iter2 (fun e a -> checks "migration states byte-identical" e a) expected actual

let suite =
  [ Alcotest.test_case "golden: every reachable point of 33 binaries" `Quick golden_states ]

(* --- tampered metadata is never answered from a stale index ---------------- *)

let on_arm (tc : Compiler.Toolchain.t) f =
  let isas =
    List.map
      (fun (p : Compiler.Toolchain.per_isa) ->
        if p.Compiler.Toolchain.arch = Isa.Arch.Arm64 then f p else p)
      tc.Compiler.Toolchain.isas
  in
  { tc with Compiler.Toolchain.isas }

let strip_live (per : Compiler.Toolchain.per_isa) =
  {
    per with
    Compiler.Toolchain.stackmaps =
      List.map
        (fun (e : Compiler.Stackmap.entry) -> { e with Compiler.Stackmap.live = [] })
        per.Compiler.Toolchain.stackmaps;
  }

let skew_unwind (per : Compiler.Toolchain.per_isa) =
  {
    per with
    Compiler.Toolchain.unwind =
      List.map
        (fun (r : Compiler.Unwind.rule) ->
          {
            r with
            Compiler.Unwind.frame_bytes = r.Compiler.Unwind.frame_bytes + 8;
            saved_registers = [];
          })
        per.Compiler.Toolchain.unwind;
  }

let grow_frames (per : Compiler.Toolchain.per_isa) =
  {
    per with
    Compiler.Toolchain.frames =
      List.map
        (fun (n, (f : Compiler.Backend.frame)) ->
          (n, { f with Compiler.Backend.frame_bytes = f.Compiler.Backend.frame_bytes + 16 }))
        per.Compiler.Toolchain.frames;
  }

(* The same program with its functions listed in reverse: names resolve
   to the same functions, positions do not. *)
let reverse_funcs (tc : Compiler.Toolchain.t) =
  let prog = tc.Compiler.Toolchain.prog in
  { tc with Compiler.Toolchain.prog = { prog with Ir.Prog.funcs = List.rev prog.Ir.Prog.funcs } }

type seen = {
  find : int option;  (** live values of a known-populated ARM site *)
  indexed : int option;  (** the same, through the binary's index *)
  frame_bytes : int;  (** unwind rule of that site's function *)
  frame_size : int;  (** frame layout of that site's function *)
  stackmap_rules : string list;
  unwind_rules : string list;
  transforms : string;  (** every x86_64 -> arm64 transformation *)
  states : string;  (** every arm64 suspension state *)
}

(* What every consumer of the ARM metadata reports for [tc]. *)
let observe ~probe (tc : Compiler.Toolchain.t) =
  let per = Compiler.Toolchain.for_arch tc Isa.Arch.Arm64 in
  let prog = tc.Compiler.Toolchain.prog in
  let fname, key = probe in
  let rules ds = List.sort_uniq compare (List.map (fun d -> d.Analysis.Diagnostic.rule) ds) in
  let sites = Interp.reachable_mig_sites tc in
  let states =
    String.concat "\n"
      (List.map
         (fun (fname, mig_id) ->
           Option.fold ~none:"unreached" ~some:state_string
             (Interp.state_at tc Isa.Arch.Arm64 ~fname ~mig_id))
         sites)
  in
  let transforms =
    String.concat "\n"
      (List.map
         (fun (fname, mig_id) ->
           match Interp.state_at tc Isa.Arch.X86_64 ~fname ~mig_id with
           | None -> "unreached"
           | Some st -> (
             match Transform.transform tc st with
             | Error msg -> "error:" ^ msg
             | Ok (d, c) ->
               Printf.sprintf "%d:%s" c.Transform.values_copied (state_string d)))
         sites)
  in
  let live_count =
    Option.map (fun (e : Compiler.Stackmap.entry) -> List.length e.Compiler.Stackmap.live)
  in
  {
    find = live_count (Compiler.Stackmap.find per.Compiler.Toolchain.stackmaps ~fname ~key);
    indexed = live_count (Compiler.Toolchain.stackmap_of per ~fname ~key);
    frame_bytes = (Compiler.Toolchain.unwind_of per fname).Compiler.Unwind.frame_bytes;
    frame_size = (Compiler.Toolchain.frame_of per fname).Compiler.Backend.frame_bytes;
    stackmap_rules = rules (Analysis.Stackmap_check.check_isa ~label:"cg.A" ~prog per);
    unwind_rules = rules (Analysis.Unwind_check.check_isa ~label:"cg.A" ~prog per);
    transforms;
    states;
  }

let stale_index_never_answers () =
  let prog = Workload.Programs.program Workload.Spec.CG Workload.Spec.A in
  let probe tc =
    let per = Compiler.Toolchain.for_arch tc Isa.Arch.Arm64 in
    let e =
      List.find
        (fun (e : Compiler.Stackmap.entry) -> e.Compiler.Stackmap.live <> [])
        per.Compiler.Toolchain.stackmaps
    in
    (e.Compiler.Stackmap.fname, (e.Compiler.Stackmap.kind, e.Compiler.Stackmap.site_id))
  in
  (* Each order on its own fresh binary: clean first, then the tampered
     copies (and clean again); tampered copies first, then clean. *)
  let clean_first =
    let tc = Compiler.Toolchain.compile prog in
    let probe = probe tc in
    let clean = observe ~probe tc in
    let live = observe ~probe (on_arm tc strip_live) in
    let unwind = observe ~probe (on_arm tc skew_unwind) in
    let frames = observe ~probe (on_arm tc grow_frames) in
    checkb "clean binary unchanged by its tampered copies" true (observe ~probe tc = clean);
    checkb "reordered functions run as the clean binary" true
      (observe ~probe (reverse_funcs tc) = clean);
    (clean, live, unwind, frames)
  in
  let tampered_first =
    let tc = Compiler.Toolchain.compile prog in
    let probe = probe tc in
    let reordered = observe ~probe (reverse_funcs tc) in
    let live = observe ~probe (on_arm tc strip_live) in
    let unwind = observe ~probe (on_arm tc skew_unwind) in
    let frames = observe ~probe (on_arm tc grow_frames) in
    let clean = observe ~probe tc in
    checkb "reordered functions run as the clean binary" true (reordered = clean);
    (clean, live, unwind, frames)
  in
  let clean, live, unwind, frames = clean_first in
  checkb "observations independent of lookup order" true (clean_first = tampered_first);
  checkb "clean metadata is lint-clean" true
    (clean.stackmap_rules = [] && clean.unwind_rules = []);
  checkb "Stackmap.find sees the stripped entry" true
    (clean.find <> Some 0 && live.find = Some 0);
  checkb "Toolchain.stackmap_of sees the stripped entry" true
    (clean.indexed = clean.find && live.indexed = Some 0);
  checkb "stackmap check sees the stripped entries" true
    (List.mem "stackmap-missing-live" live.stackmap_rules);
  checkb "transform sees the stripped entries" true (live.transforms <> clean.transforms);
  checkb "Toolchain.unwind_of sees the skewed rules" true
    (unwind.frame_bytes = clean.frame_bytes + 8);
  checkb "unwind check sees the skewed rules" true
    (List.mem "unwind-frame-align" unwind.unwind_rules);
  checkb "transform sees the skewed rules" true (unwind.transforms <> clean.transforms);
  checkb "interpreter sees the skewed rules" true (unwind.states <> clean.states);
  checkb "interpreter ignores stackmaps" true (live.states = clean.states);
  checkb "Toolchain.frame_of sees the grown frames" true
    (frames.frame_size = clean.frame_size + 16);
  checkb "transform sees the grown frames" true (frames.transforms <> clean.transforms);
  checkb "interpreter sees the grown frames" true (frames.states <> clean.states)

(* A rebuilt frame or layout is answered from its own lists too. *)
let rebuilt_frame_and_layout () =
  let tc = Compiler.Toolchain.compile (Workload.Programs.program Workload.Spec.CG Workload.Spec.A) in
  let per = Compiler.Toolchain.for_arch tc Isa.Arch.X86_64 in
  let fname, (f : Compiler.Backend.frame) = List.hd per.Compiler.Toolchain.frames in
  let name, loc = List.hd f.Compiler.Backend.locations in
  let moved = Compiler.Backend.In_slot 4242 in
  let f' = { f with Compiler.Backend.locations = (name, moved) :: f.Compiler.Backend.locations } in
  checkb "location_of: rebuilt frame" true (Compiler.Backend.location_of f' name = moved);
  checkb "location_of: original frame" true (Compiler.Backend.location_of f name = loc);
  let base = Compiler.Toolchain.symbol_address tc fname in
  let skew (l : Binary.Layout.t) =
    {
      l with
      Binary.Layout.placed =
        List.map
          (fun (p : Binary.Layout.placed) -> { p with Binary.Layout.addr = p.Binary.Layout.addr + 4096 })
          l.Binary.Layout.placed;
    }
  in
  let aligned = tc.Compiler.Toolchain.aligned in
  let skewed =
    {
      tc with
      Compiler.Toolchain.aligned =
        {
          aligned with
          Binary.Align.layouts =
            List.map (fun (a, l) -> (a, skew l)) aligned.Binary.Align.layouts;
        };
    }
  in
  checkb "symbol_address: rebuilt layout" true
    (Compiler.Toolchain.symbol_address skewed fname = base + 4096);
  checkb "symbol_address: original layout" true
    (Compiler.Toolchain.symbol_address tc fname = base);
  (* Return addresses pushed on the stack move with the layout. *)
  let stacks b =
    List.map
      (fun (fname, mig_id) ->
        Option.map
          (fun (st : Thread_state.t) -> Stack_mem.written_words st.Thread_state.stack)
          (Interp.state_at b Isa.Arch.X86_64 ~fname ~mig_id))
      (Interp.reachable_mig_sites b)
  in
  checkb "interpreter: rebuilt layout" true (stacks skewed <> stacks tc)

(* --- no binary outlives its last use ---------------------------------------- *)

let sweep (tc : Compiler.Toolchain.t) =
  List.iter
    (fun arch ->
      List.iter
        (fun (fname, mig_id) ->
          match Interp.state_at tc arch ~fname ~mig_id with
          | None -> ()
          | Some st -> (
            match Transform.transform tc st with
            | Ok (d, _) -> ignore (Transform.verify tc st d)
            | Error _ -> ()))
        (Interp.reachable_mig_sites tc))
    Isa.Arch.all

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let compile_and_sweep prog () = sweep (Compiler.Toolchain.compile prog)

let no_leak_across_binaries () =
  let prog = Workload.Programs.program Workload.Spec.CG Workload.Spec.A in
  let round = compile_and_sweep prog in
  let after = Array.make 21 0 in
  for r = 1 to 20 do
    round ();
    after.(r) <- live_words ()
  done;
  (* A retained binary costs ~4.9k words per round; 4k words of slack
     is well under one round's worth over the 18 rounds. *)
  checkb
    (Printf.sprintf "live words flat from round 2 (%d) to round 20 (%d)"
       after.(2) after.(20))
    true
    (after.(20) - after.(2) <= 4096)

let suite =
  suite
  @ [
      Alcotest.test_case "tampered metadata never hits a stale index" `Quick
        stale_index_never_answers;
      Alcotest.test_case "rebuilt frames and layouts are answered afresh" `Quick
        rebuilt_frame_and_layout;
      Alcotest.test_case "compiling and sweeping releases every binary" `Quick
        no_leak_across_binaries;
    ]
