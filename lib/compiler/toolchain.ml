module SM = Map.Make (String)

(* Each table remembers the list it was built from and answers only
   while the record in hand still carries that very list. *)
type index = {
  frames_src : (string * Backend.frame) list;
  frame_map : Backend.frame SM.t;
  unwind_src : Unwind.rule list;
  unwind_map : Unwind.rule SM.t;
  stackmaps_src : Stackmap.entry list;
  stackmaps_by_func : Stackmap.entry array SM.t;  (* in list order *)
  plan_prog : Ir.Prog.t;
  plan_aligned : Binary.Align.t;
  plan : Plan.t;
}

type per_isa = {
  arch : Isa.Arch.t;
  obj : Binary.Obj.t;
  frames : (string * Backend.frame) list;
  stackmaps : Stackmap.entry list;
  unwind : Unwind.rule list;
  elf : Binary.Elf.t;
  tls : Memsys.Tls.layout;
  index : index;
}

type symbols = { aligned_src : Binary.Align.t; addresses : int SM.t }

type t = {
  prog : Ir.Prog.t;
  aligned : Binary.Align.t;
  isas : per_isa list;
  migration_points : int;
  symbols : symbols;
}

(* First binding wins, as with [List.assoc]. *)
let first_map key l =
  List.fold_left
    (fun m x ->
      let k = key x in
      if SM.mem k m then m else SM.add k x m)
    SM.empty l

(* As [Binary.Align.address_of]: the first layout answers. *)
let symbols_of (aligned : Binary.Align.t) =
  let placed =
    match aligned.Binary.Align.layouts with
    | [] -> []
    | (_, l) :: _ -> l.Binary.Layout.placed
  in
  let addresses =
    SM.map
      (fun (p : Binary.Layout.placed) -> p.Binary.Layout.addr)
      (first_map
         (fun (p : Binary.Layout.placed) -> p.Binary.Layout.symbol.Memsys.Symbol.name)
         placed)
  in
  { aligned_src = aligned; addresses }

let symbol_opt t name =
  if t.symbols.aligned_src == t.aligned then SM.find_opt name t.symbols.addresses
  else Binary.Align.address_of t.aligned name

let frame_opt per name =
  if per.index.frames_src == per.frames then SM.find_opt name per.index.frame_map
  else List.assoc_opt name per.frames

let unwind_opt per name =
  if per.index.unwind_src == per.unwind then SM.find_opt name per.index.unwind_map
  else Unwind.find per.unwind ~fname:name

let validate prog =
  List.iter
    (fun (_, func) ->
      match Ir.Liveness.check_uses_defined func with
      | Ok _ -> ()
      | Error var ->
        invalid_arg
          (Printf.sprintf "Toolchain.compile: %s uses undefined variable %s"
             func.Ir.Prog.fname var))
    prog.Ir.Prog.funcs

let object_for arch (prog : Ir.Prog.t) =
  let func_symbols =
    List.map
      (fun (name, func) ->
        Memsys.Symbol.make ~name ~section:Memsys.Symbol.Text
          ~size:(Backend.code_size arch func)
          ~alignment:16)
      prog.funcs
  in
  Binary.Obj.make ~arch ~name:prog.name
    ~symbols:(func_symbols @ prog.globals)

let per_isa_of aligned symbols (prog : Ir.Prog.t) arch obj =
  let layout = Binary.Align.layout_for aligned arch in
  let frames =
    List.map
      (fun (name, func) -> (name, Backend.frame_layout arch func))
      prog.funcs
  in
  let stackmaps =
    List.concat_map
      (fun (name, frame) ->
        Stackmap.generate (Ir.Prog.find_func prog name) frame)
      frames
  in
  let unwind = List.map (fun (_, frame) -> Unwind.of_frame frame) frames in
  let elf = Binary.Elf.of_layout layout ~entry_symbol:prog.entry in
  let tls = Memsys.Tls.layout Memsys.Tls.Common_x86 prog.globals in
  let frame_map = SM.map snd (first_map fst frames) in
  let unwind_map = first_map (fun (r : Unwind.rule) -> r.Unwind.fname) unwind in
  let stackmaps_by_func =
    SM.map
      (fun rev -> Array.of_list (List.rev rev))
      (List.fold_left
         (fun m (e : Stackmap.entry) ->
           SM.update e.Stackmap.fname
             (fun rev -> Some (e :: Option.value rev ~default:[]))
             m)
         SM.empty stackmaps)
  in
  let plan =
    Plan.build arch prog
      ~frame_of:(fun n -> SM.find_opt n frame_map)
      ~unwind_of:(fun n -> SM.find_opt n unwind_map)
      ~address_of:(fun n -> SM.find_opt n symbols.addresses)
  in
  let index =
    {
      frames_src = frames; frame_map; unwind_src = unwind; unwind_map;
      stackmaps_src = stackmaps; stackmaps_by_func;
      plan_prog = prog; plan_aligned = aligned; plan;
    }
  in
  { arch; obj; frames; stackmaps; unwind; elf; tls; index }

let compile ?budget ?(arches = Isa.Arch.all) prog =
  validate prog;
  let prog =
    match budget with
    | None -> Migration_points.instrument prog
    | Some budget -> Migration_points.instrument ~budget prog
  in
  let objects = List.map (fun arch -> object_for arch prog) arches in
  let aligned = Binary.Align.align objects in
  begin
    match Binary.Align.check_aligned aligned with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Toolchain.compile: alignment failed: " ^ msg)
  end;
  let symbols = symbols_of aligned in
  let isas =
    List.map2
      (fun arch obj -> per_isa_of aligned symbols prog arch obj)
      arches objects
  in
  {
    prog;
    aligned;
    isas;
    migration_points = Migration_points.count_points prog;
    symbols;
  }

let for_arch t arch =
  match List.find_opt (fun p -> p.arch = arch) t.isas with
  | Some p -> p
  | None -> raise Not_found

let frame_of per name =
  match frame_opt per name with Some f -> f | None -> raise Not_found

let unwind_of per name =
  match unwind_opt per name with Some r -> r | None -> raise Not_found

let stackmap_of per ~fname ~key:((kind, site_id) as key) =
  if per.index.stackmaps_src == per.stackmaps then
    match SM.find_opt fname per.index.stackmaps_by_func with
    | None -> None
    | Some entries ->
      Array.find_opt
        (fun (e : Stackmap.entry) -> e.Stackmap.site_id = site_id && e.kind = kind)
        entries
  else Stackmap.find per.stackmaps ~fname ~key

let symbol_address t name =
  match symbol_opt t name with Some a -> a | None -> raise Not_found

let plan t per =
  let ix = per.index in
  if
    ix.plan_prog == t.prog
    && ix.plan_aligned == t.aligned
    && ix.frames_src == per.frames
    && ix.unwind_src == per.unwind
  then ix.plan
  else
    Plan.build per.arch t.prog ~frame_of:(frame_opt per)
      ~unwind_of:(unwind_opt per) ~address_of:(symbol_opt t)

let natural_layouts prog =
  List.map
    (fun arch ->
      let obj = object_for arch prog in
      (arch, Binary.Layout.natural ~base:Binary.Layout.text_base obj))
    Isa.Arch.all

let text_pages t arch =
  let layout = Binary.Align.layout_for t.aligned arch in
  match List.assoc_opt Memsys.Symbol.Text layout.Binary.Layout.section_bounds with
  | None -> []
  | Some (start, stop) -> Memsys.Page.span ~addr:start ~len:(stop - start)
