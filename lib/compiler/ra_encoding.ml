let hash_parts arch fname kind id =
  let s =
    Printf.sprintf "%s/%s/%s/%d"
      (Isa.Arch.to_string arch)
      fname
      (match kind with
      | Ir.Liveness.At_call -> "call"
      | Ir.Liveness.At_mig_point -> "mig")
      id
  in
  let h = ref 0x1505 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0xFFFFF) s;
  !h

let site_offset arch ~fname ~key:(kind, id) =
  let raw = 16 + hash_parts arch fname kind id in
  match Isa.Arch.instruction_encoding arch with
  | `Fixed n -> raw / n * n
  | `Variable _ -> raw

let encode arch ~base_of ~fname ~key =
  base_of fname + site_offset arch ~fname ~key

let decode arch ~base_of ~stackmaps addr =
  let matches (e : Stackmap.entry) =
    let key = (e.Stackmap.kind, e.site_id) in
    encode arch ~base_of ~fname:e.fname ~key = addr
  in
  match List.find_opt matches stackmaps with
  | None -> None
  | Some e -> Some (e.fname, (e.Stackmap.kind, e.site_id))
