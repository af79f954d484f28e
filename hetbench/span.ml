(* Spans the benchmark records around its own calls into the library.

   Tracing is off in the runs that measure end-to-end metrics: [with_]
   then costs one branch and no clock read. In a traced run every call
   into a layer gets a span (name, start, end, parent); hot loops are
   timed in batches, the span's [calls] saying how many calls it
   covers. Spans stay in memory until [write_chrome] at the end. *)

let now_ns () = Monotonic_clock.now ()

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  run : int;  (** shared by every span of one workload run *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  calls : int;
}

let on = ref false
let run_id = ref 0
let recorded : t list ref = ref []
let next_id = ref 0
let current = ref (-1)

let reset () =
  recorded := [];
  incr run_id

let with_ ?(calls = 1) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = now_ns () in
    let close () =
      let stop_ns = now_ns () in
      current := parent;
      recorded :=
        { id; parent; run = !run_id; name; start_ns; stop_ns; calls }
        :: !recorded
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Host nanoseconds of every span named [name], in recording order. *)
let durations_ns name =
  List.rev
    (List.filter_map
       (fun s -> if s.name = name then Some (duration_ns s) else None)
       !recorded)

(* Nanoseconds per call of every span named [name]. *)
let per_call_ns name =
  List.rev
    (List.filter_map
       (fun s ->
         if s.name = name then Some (duration_ns s /. float_of_int s.calls)
         else None)
       !recorded)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON, loadable in Perfetto: one complete event per
   span, timestamps in microseconds from the first span. *)
let write_chrome path =
  let spans = List.rev !recorded in
  let t0 =
    List.fold_left (fun m s -> if s.start_ns < m then s.start_ns else m)
      Int64.max_int spans
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"calls\":%d}}"
        (json_string s.name) s.run
        (Int64.to_float (Int64.sub s.start_ns t0) /. 1e3)
        (duration_ns s /. 1e3) s.id s.parent s.calls)
    spans;
  output_string oc "]}\n";
  close_out oc
