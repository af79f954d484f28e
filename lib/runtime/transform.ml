type cost = {
  frames : int;
  values_copied : int;
  pointers_fixed : int;
  latency_s : float;
}

let latency_us c = c.latency_s *. 1e6

(* Calibrated against the paper's Figure 10: the x86 transforms most
   stacks in under 400us; the ARM needs roughly 2x the latency. *)
let cost_coefficients = function
  | Isa.Arch.X86_64 -> (40e-6, 15e-6, 7e-6, 4e-6)
  | Isa.Arch.Arm64 -> (84e-6, 31.5e-6, 14.7e-6, 8.4e-6)

let other_half st =
  let upper, lower = Stack_mem.halves st.Thread_state.stack in
  if Stack_mem.lo st.Thread_state.active = Stack_mem.lo upper then lower
  else upper

(* Destination frame chain: same functions and suspension sites, addresses
   assigned per the destination ABI, outermost first from the top of the
   destination half. *)
let dest_frames per_dst (src_frames : Thread_state.frame list) ~top =
  let outer_first = List.rev src_frames in
  let place (caller_sp, acc) (f : Thread_state.frame) =
    let info = Compiler.Toolchain.frame_of per_dst f.Thread_state.fname in
    let fp = caller_sp - 16 in
    let sp = fp + 16 - info.Compiler.Backend.frame_bytes in
    (sp, { f with Thread_state.fp; sp } :: acc)
  in
  let _, inner_first = List.fold_left place (top, []) outer_first in
  inner_first

(* src-slot-address -> dst-slot-address for every local that lives in a
   stack slot on both ISAs (address-taken locals always do). *)
let slot_translation per_src per_dst src_frames dst_frames =
  let map = Hashtbl.create 64 in
  List.iter2
    (fun (sf : Thread_state.frame) (df : Thread_state.frame) ->
      let finfo_src = Compiler.Toolchain.frame_of per_src sf.Thread_state.fname in
      let finfo_dst = Compiler.Toolchain.frame_of per_dst df.Thread_state.fname in
      List.iter
        (fun (name, loc_src) ->
          match loc_src with
          | Compiler.Backend.In_register _ -> ()
          | Compiler.Backend.In_slot off_s -> begin
            match Compiler.Backend.location_of finfo_dst name with
            | Compiler.Backend.In_slot off_d ->
              Hashtbl.replace map (sf.Thread_state.fp - off_s)
                (df.Thread_state.fp - off_d)
            | Compiler.Backend.In_register _ | (exception Not_found) -> ()
          end)
        finfo_src.Compiler.Backend.locations)
    src_frames dst_frames;
  map

(* When a migration fails on missing/disagreeing stackmaps, the exhaustive
   cross-ISA report pinpoints every divergence instead of just the value
   that happened to trip first. *)
let stackmap_report per_src per_dst =
  match
    Compiler.Stackmap.diff_sites per_src.Compiler.Toolchain.stackmaps
      per_dst.Compiler.Toolchain.stackmaps
  with
  | [] -> ""
  | mismatches ->
    let rec take n = function
      | m :: rest when n > 0 -> m :: take (n - 1) rest
      | _ -> []
    in
    Format.asprintf " [cross-ISA stackmap diff, %d mismatch(es): %a]"
      (List.length mismatches)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         Compiler.Stackmap.pp_mismatch)
      (take 3 mismatches)

let transform ?(obs = Obs.noop) tc (src : Thread_state.t) =
  let exception Fail of string in
  try
    let arch_src = src.Thread_state.arch in
    let arch_dst = Isa.Arch.other arch_src in
    let per_src = Compiler.Toolchain.for_arch tc arch_src in
    let per_dst = Compiler.Toolchain.for_arch tc arch_dst in
    let base_of name = Compiler.Toolchain.symbol_address tc name in
    begin
      match src.Thread_state.frames with
      | [] -> raise (Fail "empty call stack")
      | inner :: _ -> begin
        match inner.Thread_state.key with
        | Ir.Liveness.At_mig_point, _ -> ()
        | Ir.Liveness.At_call, _ ->
          raise (Fail "innermost frame not at a migration point")
      end
    end;
    (* The destination state shares the stack VMA but runs on the other
       half; same region, fresh register file. *)
    let dst_active = other_half src in
    let dst =
      {
        Thread_state.arch = arch_dst;
        stack = src.Thread_state.stack;
        active = dst_active;
        regs = Regfile.create arch_dst;
        frames = [];
      }
    in
    let src_frames = src.Thread_state.frames in
    let dframes =
      dest_frames per_dst src_frames ~top:(Stack_mem.hi dst_active)
    in
    dst.Thread_state.frames <- dframes;
    let translation = slot_translation per_src per_dst src_frames dframes in
    let values = ref 0 and pointers = ref 0 in
    (* Place one value per the destination ABI. For callee-saved registers
       of non-innermost frames, follow the destination register-save
       procedure: the value belongs in the save slot of the first inner
       frame that spills the register. *)
    let write_lanes ~fp ~off (v : int64 array) =
      Array.iteri
        (fun i lane ->
          Stack_mem.write dst.Thread_state.stack (fp - off + (8 * i)) lane)
        v
    in
    (* Destination frames indexed innermost-first: frames strictly inner
       to index [idx] are [dst_arr.(idx-1) .. dst_arr.(0)], nearest (the
       direct callee) first — no per-frame rescans of the chain. *)
    let dst_arr = Array.of_list dframes in
    let place_value ~idx (df : Thread_state.frame) name
        (tl : Compiler.Stackmap.ty_loc) (v : int64 array) =
      let v =
        if Ir.Ty.is_pointer tl.Compiler.Stackmap.ty then begin
          let addr = Int64.to_int v.(0) in
          if Stack_mem.contains src.Thread_state.stack addr then begin
            match Hashtbl.find_opt translation addr with
            | Some dst_addr ->
              incr pointers;
              [| Int64.of_int dst_addr |]
            | None ->
              raise
                (Fail
                   (Printf.sprintf
                      "live stack pointer %s in %s has no destination slot"
                      name df.Thread_state.fname))
          end
          else v (* global or heap pointer: valid as-is *)
        end
        else v
      in
      values := !values + Array.length v;
      match tl.Compiler.Stackmap.loc with
      | Compiler.Backend.In_slot off -> write_lanes ~fp:df.Thread_state.fp ~off v
      | Compiler.Backend.In_register r ->
        let saves_r (f : Thread_state.frame) =
          let uw = Compiler.Toolchain.unwind_of per_dst f.Thread_state.fname in
          Compiler.Unwind.saved_offset uw r
        in
        let rec search j =
          if j < 0 then Regfile.set_lanes dst.Thread_state.regs r v
          else begin
            match saves_r dst_arr.(j) with
            | Some off -> write_lanes ~fp:dst_arr.(j).Thread_state.fp ~off v
            | None -> search (j - 1)
          end
        in
        (* Search from this frame's direct callee inwards. *)
        search (idx - 1)
    in
    (* Rewrite frame-by-frame, innermost first (the paper's "outer-most
       frame, i.e. the most recently called"). *)
    let src_arr = Array.of_list src_frames in
    if Array.length src_arr <> Array.length dst_arr then
      raise (Fail "frame chain length mismatch");
    let nframes = Array.length src_arr in
    for idx = 0 to nframes - 1 do
      let sf = src_arr.(idx) and df = dst_arr.(idx) in
      let live = Interp.live_values tc src sf in
      let entry =
        match
          Compiler.Toolchain.stackmap_of per_dst ~fname:df.Thread_state.fname
            ~key:df.Thread_state.key
        with
        | Some e -> e
        | None ->
          raise
            (Fail
               (Printf.sprintf "no destination stackmap for %s%s"
                  df.Thread_state.fname
                  (stackmap_report per_src per_dst)))
      in
      List.iter
        (fun (name, tl) ->
          match List.assoc_opt name live with
          | Some v -> place_value ~idx df name tl v
          | None ->
            raise
              (Fail
                 (Printf.sprintf "stackmaps disagree on live value %s%s" name
                    (stackmap_report per_src per_dst))))
        entry.Compiler.Stackmap.live;
      (* Frame record: saved caller FP + re-encoded return address. *)
      let caller_fp, ra =
        if idx + 1 < nframes then begin
          let caller = dst_arr.(idx + 1) in
          ( caller.Thread_state.fp,
            Ra_encoding.encode arch_dst ~base_of
              ~fname:caller.Thread_state.fname ~key:caller.Thread_state.key )
        end
        else (0, 0)
      in
      Stack_mem.write dst.Thread_state.stack df.Thread_state.fp
        (Int64.of_int caller_fp);
      Stack_mem.write dst.Thread_state.stack (df.Thread_state.fp + 8)
        (Int64.of_int ra)
    done;
    (* r_AB: map PC, SP, FP to the destination frame chain. *)
    let inner = Thread_state.innermost dst in
    Regfile.set_fp dst.Thread_state.regs inner.Thread_state.fp;
    Regfile.set_sp dst.Thread_state.regs inner.Thread_state.sp;
    Regfile.set_pc dst.Thread_state.regs
      (Int64.of_int
         (Ra_encoding.encode arch_dst ~base_of ~fname:inner.Thread_state.fname
            ~key:inner.Thread_state.key));
    let base, per_frame, per_value, per_pointer = cost_coefficients arch_src in
    let nframes = List.length src_frames in
    let cost =
      {
        frames = nframes;
        values_copied = !values;
        pointers_fixed = !pointers;
        latency_s =
          base
          +. (float_of_int nframes *. per_frame)
          +. (float_of_int !values *. per_value)
          +. (float_of_int !pointers *. per_pointer);
      }
    in
    Obs.incr obs "transform.runs";
    Obs.observe obs "transform.latency_us" (cost.latency_s *. 1e6);
    Ok (dst, cost)
  with Fail msg ->
    Obs.incr obs "transform.errors";
    Error msg

let verify tc (src : Thread_state.t) (dst : Thread_state.t) =
  let exception Bad of string in
  try
    let per_src = Compiler.Toolchain.for_arch tc src.Thread_state.arch in
    let per_dst = Compiler.Toolchain.for_arch tc dst.Thread_state.arch in
    if List.length src.Thread_state.frames <> List.length dst.Thread_state.frames
    then raise (Bad "frame chain lengths differ");
    List.iter2
      (fun (sf : Thread_state.frame) (df : Thread_state.frame) ->
        if sf.Thread_state.fname <> df.Thread_state.fname then
          raise (Bad "frame functions differ");
        if sf.Thread_state.key <> df.Thread_state.key then
          raise (Bad (Printf.sprintf "suspension site differs in %s" sf.fname)))
      src.Thread_state.frames dst.Thread_state.frames;
    let translation =
      slot_translation per_src per_dst src.Thread_state.frames
        dst.Thread_state.frames
    in
    List.iter2
      (fun sf df ->
        let live_src = Interp.live_values tc src sf in
        let live_dst = Interp.live_values tc dst df in
        if List.map fst live_src <> List.map fst live_dst then
          raise (Bad (Printf.sprintf "live sets differ in %s" sf.Thread_state.fname));
        (* Types come from the stackmap; either side works. *)
        let entry =
          match
            Compiler.Toolchain.stackmap_of per_src ~fname:sf.Thread_state.fname
              ~key:sf.Thread_state.key
          with
          | Some e -> e
          | None -> raise (Bad "missing source stackmap")
        in
        List.iter2
          (fun (name, (vs : int64 array)) (_, (vd : int64 array)) ->
            let ty =
              match List.assoc_opt name entry.Compiler.Stackmap.live with
              | Some tl -> tl.Compiler.Stackmap.ty
              | None -> Ir.Ty.I64
            in
            let equal =
              if Ir.Ty.is_pointer ty then begin
                let addr = Int64.to_int vs.(0) in
                if Stack_mem.contains src.Thread_state.stack addr then
                  match Hashtbl.find_opt translation addr with
                  | Some expected -> Int64.to_int vd.(0) = expected
                  | None -> false
                else vs = vd
              end
              else vs = vd
            in
            if not equal then
              raise
                (Bad
                   (Printf.sprintf "value of %s.%s differs: %Ld vs %Ld"
                      sf.Thread_state.fname name vs.(0) vd.(0))))
          live_src live_dst)
      src.Thread_state.frames dst.Thread_state.frames;
    Ok ()
  with Bad msg -> Error msg
