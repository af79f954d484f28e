module Plan = Compiler.Plan

exception Stop

let set_key st fname key =
  match st.Thread_state.frames with
  | f :: rest when String.equal f.Thread_state.fname fname ->
    st.Thread_state.frames <- { f with key } :: rest
  | _ -> failwith "Interp: frame mismatch"

(* Multi-lane slot access: lane [i] lives at [base + 8i]. *)
let read_slot_lanes stack ~fp ~off ~lanes =
  Array.init lanes (fun i -> Stack_mem.read stack (fp - off + (8 * i)))

let write_slot_lanes stack ~fp ~off value =
  Array.iteri (fun i v -> Stack_mem.write stack (fp - off + (8 * i)) v) value

(* The process heap: part of P, identity-mapped across ISAs. Both ISAs
   replay the same deterministic allocation sequence, so every heap
   pointer has the same value on either side of a migration. *)
let heap_base = 0x10_0000_0000
let heap_bytes = 4 * 1024 * 1024

type ctx = {
  plan : Plan.t;
  st : Thread_state.t;
  heap : Memsys.Heap.t;
  stop : Plan.func option;  (* stop in this function ... *)
  stop_id : int;  (* ... at this migration point *)
  mutable checks : int;
}

let entry_key = (Ir.Liveness.At_call, -1)

let rec exec_func ctx (f : Plan.func) ~args ~ra ~caller_sp =
  if f.Plan.missing then raise Not_found;
  let fname = f.Plan.fname in
  let stack = ctx.st.Thread_state.stack in
  let regs = ctx.st.Thread_state.regs in
  (* Frame record: [fp] = saved caller FP, [fp+8] = return address. *)
  let fp = caller_sp - 16 in
  let sp = fp + 16 - f.Plan.frame_bytes in
  Stack_mem.write stack fp (Int64.of_int (Regfile.get_fp regs));
  Stack_mem.write stack (fp + 8) (Int64.of_int ra);
  (* Prologue: spill the callee-saved registers this function will use
     (GPRs one word, vector registers two). *)
  Array.iter
    (fun (r, off, lanes) ->
      write_slot_lanes stack ~fp ~off (Regfile.get_lanes regs r lanes))
    f.Plan.saves;
  Regfile.set_fp regs fp;
  Regfile.set_sp regs sp;
  ctx.st.Thread_state.frames <-
    { Thread_state.fname; key = entry_key; fp; sp } :: ctx.st.Thread_state.frames;
  let write home (v : int64 array) =
    match home with
    | Plan.Reg (r, _) -> Regfile.set_lanes regs r v
    | Plan.Slot (off, _) -> write_slot_lanes stack ~fp ~off v
    | Plan.Nowhere -> raise Not_found
  in
  let read = function
    | Plan.Reg (r, lanes) -> Regfile.get_lanes regs r lanes
    | Plan.Slot (off, lanes) -> read_slot_lanes stack ~fp ~off ~lanes
    | Plan.Nowhere -> raise Not_found
  in
  (* Parameter passing: arguments arrive in argument registers, the
     prologue moves them to their homes. *)
  let params = f.Plan.params in
  for i = 0 to min (Array.length args) (Array.length params) - 1 do
    write params.(i) args.(i)
  done;
  if Array.length args <> Array.length params then invalid_arg "List.iter2";
  let value = function
    | Plan.Lanes v -> v
    | Plan.Local_address off -> [| Int64.of_int (fp - off) |]
    | Plan.Heap bytes -> begin
      match Memsys.Heap.malloc ctx.heap bytes with
      | Some addr -> [| Int64.of_int addr |]
      | None -> failwith (Printf.sprintf "Interp: heap exhausted in %s" fname)
    end
    | Plan.Raise e -> raise e
  in
  let rec exec_step = function
    | Plan.Def (home, v) -> write home (value v)
    | Plan.Use home -> ignore (read home)
    | Plan.Mig_point key ->
      ctx.checks <- ctx.checks + 1;
      set_key ctx.st fname key;
      begin
        match ctx.stop with
        | Some s when s == f && ctx.stop_id = snd key -> raise Stop
        | Some _ | None -> ()
      end
    | Plan.Call { key; args; ra; callee } ->
      set_key ctx.st fname key;
      let args = Array.map read args in
      let ra =
        match ra with Plan.Resolved a -> a | Plan.Unresolved -> raise Not_found
      in
      exec_func ctx (Plan.func ctx.plan callee) ~args ~ra ~caller_sp:sp;
      (* Back in this frame: re-establish our SP/FP. *)
      Regfile.set_fp regs fp;
      Regfile.set_sp regs sp
    | Plan.Loop body -> Array.iter exec_step body
  in
  Array.iter exec_step f.Plan.body;
  (* Epilogue: restore callee-saved registers, pop the frame. *)
  Array.iter
    (fun (r, off, lanes) ->
      Regfile.set_lanes regs r (read_slot_lanes stack ~fp ~off ~lanes))
    f.Plan.saves;
  begin
    match ctx.st.Thread_state.frames with
    | _ :: rest -> ctx.st.Thread_state.frames <- rest
    | [] -> failwith "Interp: pop of empty frame list"
  end;
  Regfile.set_fp regs (Int64.to_int (Stack_mem.read stack fp))

let make_ctx tc arch ~stop_at =
  let per = Compiler.Toolchain.for_arch tc arch in
  let plan = Compiler.Toolchain.plan tc per in
  let stop, stop_id =
    match stop_at with
    | None -> (None, -1)
    | Some (fname, id) -> begin
      match Plan.index_of tc.Compiler.Toolchain.prog fname with
      | i when i < 0 -> (None, -1)
      | i -> (Some plan.Plan.funcs.(i), id)
    end
  in
  { plan; st = Thread_state.create arch;
    heap = Memsys.Heap.create ~base:heap_base ~bytes:heap_bytes;
    stop; stop_id; checks = 0 }

let start ctx =
  let top = Stack_mem.hi ctx.st.Thread_state.active in
  Regfile.set_fp ctx.st.Thread_state.regs 0;
  exec_func ctx (Plan.func ctx.plan ctx.plan.Plan.entry) ~args:[||] ~ra:0
    ~caller_sp:top

let state_at tc arch ~fname ~mig_id =
  let ctx = make_ctx tc arch ~stop_at:(Some (fname, mig_id)) in
  match start ctx with
  | () -> None
  | exception Stop ->
    (* Freeze the PC at the migration point. *)
    let inner = Thread_state.innermost ctx.st in
    Regfile.set_pc ctx.st.Thread_state.regs
      (Int64.of_int
         (Ra_encoding.encode arch
            ~base_of:(Compiler.Toolchain.symbol_address tc)
            ~fname:inner.Thread_state.fname ~key:inner.Thread_state.key));
    Some ctx.st

let run_to_completion tc arch =
  let ctx = make_ctx tc arch ~stop_at:None in
  start ctx;
  assert (ctx.st.Thread_state.frames = []);
  ctx.checks

let reachable_mig_sites tc =
  let prog = tc.Compiler.Toolchain.prog in
  let graph = Ir.Callgraph.build prog in
  let reachable = Ir.Callgraph.reachable graph prog.Ir.Prog.entry in
  List.concat_map
    (fun fname ->
      List.map
        (fun id -> (fname, id))
        (Ir.Prog.mig_points (Ir.Prog.find_func prog fname)))
    reachable

let live_values tc st (frame : Thread_state.frame) =
  let per = Compiler.Toolchain.for_arch tc st.Thread_state.arch in
  let entry =
    match
      Compiler.Toolchain.stackmap_of per ~fname:frame.Thread_state.fname
        ~key:frame.Thread_state.key
    with
    | Some e -> e
    | None ->
      failwith
        (Printf.sprintf "Interp.live_values: no stackmap for %s"
           frame.Thread_state.fname)
  in
  (* Frames strictly inner to [frame], ordered from frame's direct callee
     towards the innermost. *)
  let inner_frames =
    let rec before acc = function
      | [] -> failwith "Interp.live_values: frame not on stack"
      | f :: rest ->
        if f == frame || f = frame then List.rev acc else before (f :: acc) rest
    in
    List.rev (before [] st.Thread_state.frames)
  in
  let resolve_register r ~lanes =
    let saved_in f =
      let uw = Compiler.Toolchain.unwind_of per f.Thread_state.fname in
      match Compiler.Unwind.saved_offset uw r with
      | Some off ->
        Some
          (read_slot_lanes st.Thread_state.stack ~fp:f.Thread_state.fp ~off
             ~lanes)
      | None -> None
    in
    let rec search = function
      | [] -> Regfile.get_lanes st.Thread_state.regs r lanes
      | f :: rest -> begin
        match saved_in f with
        | Some v -> v
        | None -> search rest
      end
    in
    search inner_frames
  in
  List.map
    (fun (name, (tl : Compiler.Stackmap.ty_loc)) ->
      let lanes = Ir.Ty.lanes tl.Compiler.Stackmap.ty in
      let v =
        match tl.Compiler.Stackmap.loc with
        | Compiler.Backend.In_slot off ->
          read_slot_lanes st.Thread_state.stack ~fp:frame.Thread_state.fp ~off
            ~lanes
        | Compiler.Backend.In_register r -> resolve_register r ~lanes
      in
      (name, v))
    entry.Compiler.Stackmap.live
