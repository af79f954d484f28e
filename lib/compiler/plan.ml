type address = Resolved of int | Unresolved

type home = Reg of Isa.Register.t * int | Slot of int * int | Nowhere

type value =
  | Lanes of int64 array
  | Heap of int
  | Local_address of int
  | Raise of exn

type step =
  | Def of home * value
  | Use of home
  | Mig_point of Stackmap.site_key
  | Call of {
      key : Stackmap.site_key;
      args : home array;
      ra : address;
      callee : int;
    }
  | Loop of step array

type func = {
  fname : string;
  missing : bool;
  frame_bytes : int;
  saves : (Isa.Register.t * int * int) array;
  params : home array;
  body : step array;
}

type t = { funcs : func array; entry : int }

(* Deterministic lane values for a local: both ISAs materialize identical
   values, which is what makes cross-ISA state comparison meaningful.
   Values are arrays of 64-bit lanes: 1 for scalars, 2 for V128. *)
let scalar_lane fname vname lane =
  let s = Printf.sprintf "%s.%s/%d" fname vname lane in
  let h = ref 0x12345L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let materialize_lanes fname vname (ty : Ir.Ty.t) =
  let raw i = scalar_lane fname vname i in
  match ty with
  | Ir.Ty.I8 -> [| Int64.logand (raw 0) 0xFFL |]
  | Ir.Ty.I16 -> [| Int64.logand (raw 0) 0xFFFFL |]
  | Ir.Ty.I32 | Ir.Ty.F32 -> [| Int64.logand (raw 0) 0xFFFFFFFFL |]
  | Ir.Ty.I64 | Ir.Ty.F64 | Ir.Ty.Ptr -> [| raw 0 |]
  | Ir.Ty.V128 -> [| raw 0; raw 1 |]

let reg_lanes r = if Isa.Register.is_vector r then 2 else 1

let index_of (prog : Ir.Prog.t) name =
  let rec go i = function
    | [] -> -1
    | (n, _) :: rest -> if n = name then i else go (i + 1) rest
  in
  go 0 prog.funcs

let missing fname =
  { fname; missing = true; frame_bytes = 0; saves = [||]; params = [||]; body = [||] }

let func_plan arch prog ~address_of ~frame ~unwind fname (func : Ir.Prog.func) =
  match (frame, unwind) with
  | None, _ | _, None -> missing fname
  | Some (frame : Backend.frame), Some (uw : Unwind.rule) ->
    let types = Hashtbl.create 16 in
    List.iter
      (fun (v : Ir.Prog.var) -> Hashtbl.replace types v.Ir.Prog.vname v.Ir.Prog.ty)
      (Ir.Prog.locals func);
    let lanes name =
      Ir.Ty.lanes
        (match Hashtbl.find_opt types name with Some ty -> ty | None -> Ir.Ty.I64)
    in
    let location name =
      match Backend.location_of frame name with
      | loc -> Some loc
      | exception Not_found -> None
    in
    (* One home per name, shared by every step that names it. *)
    let homes = Hashtbl.create 16 in
    let home name =
      match Hashtbl.find_opt homes name with
      | Some h -> h
      | None ->
        let h =
          match location name with
          | Some (Backend.In_register r) -> Reg (r, lanes name)
          | Some (Backend.In_slot off) -> Slot (off, lanes name)
          | None -> Nowhere
        in
        Hashtbl.add homes name h;
        h
    in
    let return_address key =
      match address_of fname with
      | Some base -> Resolved (base + Ra_encoding.site_offset arch ~fname ~key)
      | None -> Unresolved
    in
    let value (v : Ir.Prog.var) =
      match v.Ir.Prog.init with
      | Ir.Prog.Scalar -> Lanes (materialize_lanes fname v.vname v.ty)
      | Ir.Prog.Ptr_to_local target -> begin
        match location target with
        | Some (Backend.In_slot off) -> Local_address off
        | Some (Backend.In_register _) ->
          Raise
            (Failure
               (Printf.sprintf "Interp: address taken of register local %s.%s"
                  fname target))
        | None -> Raise Not_found
      end
      | Ir.Prog.Ptr_to_global g -> begin
        match address_of g with
        | Some a -> Lanes [| Int64.of_int a |]
        | None -> Raise Not_found
      end
      | Ir.Prog.Ptr_to_heap bytes -> Heap bytes
    in
    let rec steps body =
      Array.of_list
        (List.filter_map
           (function
             | Ir.Prog.Work _ -> None
             | Ir.Prog.Def v -> Some (Def (home v.Ir.Prog.vname, value v))
             | Ir.Prog.Use x -> Some (Use (home x))
             | Ir.Prog.Mig_point id ->
               Some (Mig_point (Ir.Liveness.At_mig_point, id))
             | Ir.Prog.Call c ->
               let key = (Ir.Liveness.At_call, c.Ir.Prog.site_id) in
               Some
                 (Call
                    {
                      key;
                      args = Array.of_list (List.map home c.Ir.Prog.args);
                      ra = return_address key;
                      callee = index_of prog c.Ir.Prog.callee;
                    })
             | Ir.Prog.Loop l -> Some (Loop (steps l.Ir.Prog.body)))
           body)
    in
    {
      fname;
      missing = false;
      frame_bytes = frame.Backend.frame_bytes;
      saves =
        Array.of_list
          (List.map
             (fun (r, off) -> (r, off, reg_lanes r))
             uw.Unwind.saved_registers);
      params =
        Array.of_list
          (List.map (fun (p : Ir.Prog.var) -> home p.Ir.Prog.vname) func.params);
      body = steps func.body;
    }

let build arch (prog : Ir.Prog.t) ~frame_of ~unwind_of ~address_of =
  let funcs =
    Array.of_list
      (List.map
         (fun (fname, func) ->
           func_plan arch prog ~address_of ~frame:(frame_of fname)
             ~unwind:(unwind_of fname) fname func)
         prog.funcs)
  in
  { funcs; entry = index_of prog prog.entry }

let func t i = if i < 0 then raise Not_found else t.funcs.(i)
