module D = Diagnostic

let rules =
  [
    ("stackmap-missing-entry", D.Error, "an equivalence point has no stackmap entry");
    ("stackmap-missing-live", D.Error, "a live variable has no location at an equivalence point");
    ("stackmap-stale-live", D.Warning, "a stackmap entry records a variable liveness says is dead");
    ("stackmap-missing-frame", D.Error, "a function with stackmap entries has no frame layout");
    ("stackmap-wrong-arch-register", D.Error, "a recorded register belongs to the other ISA");
    ("stackmap-caller-saved-register", D.Error, "a live value is recorded in a caller-saved register");
    ("stackmap-register-class", D.Error, "a value's type and its register's class disagree");
    ("stackmap-slot-out-of-frame", D.Error, "a recorded stack slot lies outside the function's frame");
    ("stackmap-slot-misaligned", D.Error, "a recorded stack slot violates its type's alignment");
    ("stackmap-frame-disagree", D.Error, "a stackmap location disagrees with the backend frame layout");
    ("stackmap-site-mismatch", D.Error, "the per-ISA metadata sets disagree on an equivalence point");
    ("stackmap-type-mismatch", D.Error, "the two ISAs record different types for the same live value");
  ]

let site_str kind id =
  match (kind : Ir.Liveness.site_kind) with
  | Ir.Liveness.At_call -> Printf.sprintf "call:%d" id
  | Ir.Liveness.At_mig_point -> Printf.sprintf "mig-point:%d" id

let pp_loc ppf (loc : Compiler.Backend.location) =
  match loc with
  | Compiler.Backend.In_register r -> Isa.Register.pp ppf r
  | Compiler.Backend.In_slot k -> Format.fprintf ppf "[FP-%d]" k

let check_location
    ~(emit :
       rule:string -> severity:D.severity -> ?site:string -> string -> unit)
    ~arch ~(frame : Compiler.Backend.frame option) ~site name
    (tl : Compiler.Stackmap.ty_loc) =
  match tl.Compiler.Stackmap.loc with
  | Compiler.Backend.In_register r ->
      if r.Isa.Register.arch <> arch then
        emit ~rule:"stackmap-wrong-arch-register" ~severity:D.Error ~site
          (Format.asprintf "%s recorded in %a, a register of the other ISA"
             name Isa.Register.pp r)
      else begin
        let callee_saved =
          if Isa.Register.is_vector r then
            List.exists (Isa.Register.equal r)
              (Isa.Register.vector_callee_saved arch)
          else Isa.Register.is_callee_saved r
        in
        if not callee_saved then
          emit ~rule:"stackmap-caller-saved-register" ~severity:D.Error ~site
            (Format.asprintf
               "%s recorded in caller-saved %a — it would not survive the call"
               name Isa.Register.pp r);
        let want_vector = tl.Compiler.Stackmap.ty = Ir.Ty.V128 in
        if want_vector <> Isa.Register.is_vector r then
          emit ~rule:"stackmap-register-class" ~severity:D.Error ~site
            (Format.asprintf "%s has type %s but is recorded in %a" name
               (Ir.Ty.to_string tl.Compiler.Stackmap.ty)
               Isa.Register.pp r)
      end
  | Compiler.Backend.In_slot k ->
      (* An [In_slot k] value occupies [FP-k, FP-k+size): the slot must sit
         strictly below FP and above the frame's low end. The 16-byte frame
         record lives at [FP, FP+16), so the below-FP area is
         frame_bytes - frame_record_size. *)
      let is_vector = tl.Compiler.Stackmap.ty = Ir.Ty.V128 in
      let slot_bytes = if is_vector then 16 else 8 in
      let align = if is_vector then 16 else 8 in
      (match frame with
      | None -> ()
      | Some f ->
          let below_fp =
            f.Compiler.Backend.frame_bytes
            - (Isa.Abi.of_arch arch).Isa.Abi.frame_record_size
          in
          if k < slot_bytes || k > below_fp then
            emit ~rule:"stackmap-slot-out-of-frame" ~severity:D.Error ~site
              (Printf.sprintf
                 "%s at [FP-%d] lies outside the %d-byte below-FP area" name k
                 below_fp));
      if k mod align <> 0 then
        emit ~rule:"stackmap-slot-misaligned" ~severity:D.Error ~site
          (Printf.sprintf "%s at [FP-%d] violates its %d-byte slot alignment"
             name k align)

let check_isa ~label ~prog (p : Compiler.Toolchain.per_isa) =
  let arch = p.Compiler.Toolchain.arch in
  let out = ref [] in
  List.iter
    (fun (fname, func) ->
      if not func.Ir.Prog.is_library then begin
        let emit ~rule ~severity ?site msg =
          out := D.make ~rule ~severity ~prog:label ~func:fname ?site msg :: !out
        in
        let frame =
          List.assoc_opt fname p.Compiler.Toolchain.frames
        in
        let sites = Ir.Liveness.analyze func in
        if frame = None && sites <> [] then
          emit ~rule:"stackmap-missing-frame" ~severity:D.Error
            "no frame layout for an instrumented function";
        List.iter
          (fun (s : Ir.Liveness.site) ->
            let site = site_str s.Ir.Liveness.kind s.Ir.Liveness.id in
            match
              Compiler.Toolchain.stackmap_of p ~fname
                ~key:(s.Ir.Liveness.kind, s.Ir.Liveness.id)
            with
            | None ->
                emit ~rule:"stackmap-missing-entry" ~severity:D.Error ~site
                  (Printf.sprintf "equivalence point has no %s stackmap entry"
                     (Isa.Arch.to_string arch))
            | Some entry ->
                let recorded = entry.Compiler.Stackmap.live in
                List.iter
                  (fun var ->
                    match List.assoc_opt var recorded with
                    | None ->
                        emit ~rule:"stackmap-missing-live" ~severity:D.Error
                          ~site
                          (Printf.sprintf
                             "live variable %s has no recorded %s location" var
                             (Isa.Arch.to_string arch))
                    | Some tl ->
                        check_location ~emit ~arch ~frame ~site var tl;
                        (* The stackmap is derived from the frame layout:
                           the two must agree on the value's home. *)
                        (match frame with
                        | None -> ()
                        | Some f -> (
                            match
                              List.assoc_opt var f.Compiler.Backend.locations
                            with
                            | Some floc
                              when floc <> tl.Compiler.Stackmap.loc ->
                                emit ~rule:"stackmap-frame-disagree"
                                  ~severity:D.Error ~site
                                  (Format.asprintf
                                     "%s recorded at %a but the frame layout \
                                      places it at %a"
                                     var pp_loc tl.Compiler.Stackmap.loc
                                     pp_loc floc)
                            | _ -> ())))
                  s.Ir.Liveness.live;
                List.iter
                  (fun (var, _) ->
                    if not (List.mem var s.Ir.Liveness.live) then
                      emit ~rule:"stackmap-stale-live" ~severity:D.Warning
                        ~site
                        (Printf.sprintf
                           "entry records %s, which liveness says is dead here"
                           var))
                  recorded)
          sites
      end)
    prog.Ir.Prog.funcs;
  List.rev !out

let check_pair ~label (a : Compiler.Toolchain.per_isa)
    (b : Compiler.Toolchain.per_isa) =
  let out = ref [] in
  let mismatch_diags =
    List.map
      (fun (m : Compiler.Stackmap.mismatch) ->
        let fname, kind, id =
          match m with
          | Compiler.Stackmap.Site_missing { fname; kind; site_id; _ }
          | Compiler.Stackmap.Site_order { fname; kind; site_id }
          | Compiler.Stackmap.Live_set { fname; kind; site_id; _ } ->
              (fname, kind, site_id)
        in
        D.make ~rule:"stackmap-site-mismatch" ~severity:D.Error ~prog:label
          ~func:fname ~site:(site_str kind id)
          (Format.asprintf "%a" Compiler.Stackmap.pp_mismatch m))
      (Compiler.Stackmap.diff_sites a.Compiler.Toolchain.stackmaps
         b.Compiler.Toolchain.stackmaps)
  in
  let pairs, _ =
    Compiler.Stackmap.join_sites a.Compiler.Toolchain.stackmaps
      b.Compiler.Toolchain.stackmaps
  in
  List.iter
    (fun ((ea : Compiler.Stackmap.entry), (eb : Compiler.Stackmap.entry)) ->
      List.iter
        (fun (var, (tla : Compiler.Stackmap.ty_loc)) ->
          match List.assoc_opt var eb.Compiler.Stackmap.live with
          | Some tlb when tla.Compiler.Stackmap.ty <> tlb.Compiler.Stackmap.ty
            ->
              out :=
                D.make ~rule:"stackmap-type-mismatch" ~severity:D.Error
                  ~prog:label ~func:ea.Compiler.Stackmap.fname
                  ~site:
                    (site_str ea.Compiler.Stackmap.kind
                       ea.Compiler.Stackmap.site_id)
                  (Printf.sprintf "%s is %s on %s but %s on %s" var
                     (Ir.Ty.to_string tla.Compiler.Stackmap.ty)
                     (Isa.Arch.to_string a.Compiler.Toolchain.arch)
                     (Ir.Ty.to_string tlb.Compiler.Stackmap.ty)
                     (Isa.Arch.to_string b.Compiler.Toolchain.arch))
                :: !out
          | _ -> ())
        ea.Compiler.Stackmap.live)
    pairs;
  mismatch_diags @ List.rev !out

let check ?label (t : Compiler.Toolchain.t) =
  let label =
    match label with Some l -> l | None -> t.Compiler.Toolchain.prog.Ir.Prog.name
  in
  let prog = t.Compiler.Toolchain.prog in
  let per_isa =
    List.concat_map
      (fun p -> check_isa ~label ~prog p)
      t.Compiler.Toolchain.isas
  in
  let rec pairs = function
    | [] | [ _ ] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  let cross =
    List.concat_map
      (fun (a, b) -> check_pair ~label a b)
      (pairs t.Compiler.Toolchain.isas)
  in
  per_isa @ cross
