(* hetbench: host cost of simulating hetmig's scenarios.

   main.exe --workload NAME|all --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; a host record and the full
   results go to .hetbench/. It exits 1 when an output check fails. *)

(* Claims are made at seed 42 and confirmed at the held-out seed 7. *)
let default_seed = 42

(* MD5 of each workload's rendered reports. A change that moves one is a
   model change, and its issue must say so. *)
let digests =
  [
    ("serve_stream", 42, "97e00ef0e05d6d336df74e6340139be0");
    ("serve_stream", 7, "797f71f10a9af8a4fb5c3565ba113445");
    ("cluster_rack", 42, "78bdb26dc056e92b137d746ffe4752d2");
    ("cluster_rack", 7, "4f29da989be50845e48bed51890bf2fd");
    ("paper_ensemble", 42, "588f85e808f6b6b7c6db687a986a2bef");
    ("paper_ensemble", 7, "c3031c74aec8024289fc293913cc92a9");
  ]

let end_to_end =
  [
    ("host_s", "s");
    ("setup_s", "s");
    ("alloc_words_per_op", "words");
    ("heap_top_mb", "MB");
    ("sim_p99_ms", "ms");
    ("sim_makespan_s", "s");
    ("sim_energy_kj", "kJ");
  ]

let per_layer =
  [
    ("compiler.compile_ms.p50", "ms");
    ("compiler.compile_ms.p90", "ms");
    ("compiler.binaries", "count");
    ("compiler.migration_points", "count");
    ("runtime.state_at_us.p50", "us");
    ("runtime.state_at_us.p99", "us");
    ("runtime.transform_us.p50", "us");
    ("runtime.transform_us.p99", "us");
    ("runtime.verify_us.p50", "us");
    ("runtime.verify_us.p99", "us");
    ("runtime.transforms", "count");
    ("runtime.transform_errors", "count");
    ("runtime.verify_failures", "count");
    ("runtime.transform_sim_us.p50", "us");
    ("runtime.transform_sim_us.p99", "us");
    ("kernel.msg_sent", "count");
    ("kernel.msg_failed", "count");
    ("kernel.rpc_sim_us.p50", "us");
    ("kernel.rpc_sim_us.p99", "us");
    ("kernel.migrations", "count");
    ("kernel.migration_aborts", "count");
    ("kernel.latency_cache.hits", "count");
    ("kernel.latency_cache.misses", "count");
    ("workload.phase_memo.hits", "count");
    ("workload.phase_memo.misses", "count");
    ("dsm.access_ns", "ns");
    ("dsm.fetch_run_ns", "ns");
    ("dsm.remote_fetches", "count");
    ("dsm.protocol_msgs", "count");
    ("dsm.bytes_transferred", "bytes");
    ("dsm.local_hit_ratio", "ratio");
    ("dsm.drain_sim_s", "s");
    ("sim.engine.push_pop_ns", "ns");
    ("sim.calendar.push_pop_ns", "ns");
    ("sim.islands.windows", "count");
    ("sim.islands.events", "count");
    ("sim.islands.events_per_window", "count");
    ("sim.islands.host_us_per_window", "us");
    ("sim.islands.seq_host_s", "s");
    ("sim.islands.par_host_s", "s");
    ("sim.islands.speedup", "ratio");
    ("sched.arrival.pull_ns", "ns");
    ("sched.service.ns_per_request", "ns");
    ("sched.service.minor_words_per_request", "words");
    ("sched.service.responded", "count");
    ("sched.service.dropped", "count");
    ("sched.cluster.pack_power_cap.host_s", "s");
    ("sched.cluster.edp_migrate.host_s", "s");
    ("sched.cluster.work_steal.host_s", "s");
    ("sched.cluster.pack_power_cap.us_per_job", "us");
    ("sched.cluster.edp_migrate.us_per_job", "us");
    ("sched.cluster.work_steal.us_per_job", "us");
    ("sched.fleet.host_s", "s");
    ("sched.cluster.migrations", "count");
    ("sched.cluster.steals", "count");
    ("sched.cluster.deferred", "count");
    ("sched.fleet.failed", "count");
    ("sched.fleet.retried_phases", "count");
    ("sched.scheduler.run_ms.p50", "ms");
    ("sched.scheduler.run_ms.p90", "ms");
    ("sched.scheduler.batched_run_ms.p50", "ms");
    ("sched.scheduler.batched_run_ms.p90", "ms");
    ("machine.topology.transfer_ns", "ns");
    ("host.calibration_ns", "ns");
    ("host.reference_ms", "ms");
    ("host.raw_pass_s", "s");
    ("trace.overhead_s", "s");
  ]

let median = Workloads.median
let quantile = Workloads.quantile
let fastest = List.fold_left Float.min Float.infinity
let seconds_since t0 = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9

(* A fixed integer loop: it moves with the host, never with a commit. *)
let calibration_ns () =
  let iters = 2_000_000 in
  let sample () =
    let t0 = Span.now_ns () in
    let x = ref 0x2545F491 in
    for _ = 1 to iters do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF
    done;
    ignore (Sys.opaque_identity !x);
    seconds_since t0 *. 1e9 /. float_of_int iters
  in
  median (List.init 5 (fun _ -> sample ()))

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* One pass as one CLI invocation would pay for it: the process-global
   memos start cold and the heap starts collected. *)
let timed_pass (p : Workloads.prepared) ~domains =
  Kernel.Popcorn.latency_cache_clear ();
  Workload.Spec.phase_memo_clear ();
  Gc.full_major ();
  let w0 = alloc_words () in
  let t0 = Span.now_ns () in
  let o = p.pass ~domains in
  let dt = seconds_since t0 in
  (o, dt, alloc_words () -. w0)

(* Repeat [f] until [seconds] have passed and at least [min] times, or
   [max] times. *)
let loop ?(max = max_int) ~seconds ~min f =
  let t0 = Span.now_ns () in
  let rec go n acc =
    if n >= max || (n >= min && seconds_since t0 >= seconds) then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  go 0 []

(* What the sim_* metrics and per-layer counts are made of: it must not
   change across passes or domain counts. *)
let signature (o : Workloads.outcome) =
  ( o.sim_p99_ms,
    o.sim_makespan_s,
    o.sim_energy_kj,
    List.filter
      (fun (k, _) -> k <> "sched.service.minor_words_per_request")
      o.counts )

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  problems : string list;
  digest : string;
  calibration : float;
  setup_times : float list;
  pass_times : float list;
  reference_times : float list;
}

let run_workload (w : Workloads.t) ~seed ~seconds ~trace =
  let calibration = calibration_ns () in
  let t0 = Span.now_ns () in
  let prepared = w.prepare ~seed in
  let first = seconds_since t0 in
  (* The reference pass, outside the timed region and before anything
     else allocates. Its heap top is the memory metric: one domain
     allocates deterministically. *)
  let reference, _, _ = timed_pass prepared ~domains:1 in
  let heap_top_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  (* The reference kernel runs before every set-up sample and every
     timed pass, so its fastest time is taken over the same stretch of
     the run as theirs. *)
  let reference_times = ref [] in
  let time_reference () =
    reference_times := Reference.time () :: !reference_times
  in
  (* Set-up: sample the time to build the inputs at least 3 times and
     for 0.25 s, then once more each time another eighth of the run has
     passed, so the samples span the run as the passes do. A sample
     builds them as many times as fill a millisecond, so microsecond
     set-ups are not timer and cache jitter. *)
  let builds = max 1 (int_of_float (Float.ceil (1e-3 /. first))) in
  let setup_times = ref [ first ] and last_setup = ref (Span.now_ns ()) in
  let set_up () =
    time_reference ();
    let t0 = Span.now_ns () in
    for _ = 1 to builds do
      ignore (w.prepare ~seed)
    done;
    setup_times := (seconds_since t0 /. float_of_int builds) :: !setup_times;
    last_setup := Span.now_ns ()
  in
  let burst = Span.now_ns () in
  while
    let n = List.length !setup_times in
    n < 3 || (n < 50 && seconds_since burst < 0.25)
  do
    set_up ()
  done;
  let timed_pass p ~domains =
    if seconds_since !last_setup >= seconds /. 8.0 then set_up ();
    time_reference ();
    timed_pass p ~domains
  in
  (* The same pass on parallel island lanes, which must not change a
     byte. It is not what host_s times: on a shared two-core host, a
     barrier-bound pass at two domains follows the other tenants' load
     (NOTES.md). *)
  let parallel () =
    let o, t, _ = timed_pass prepared ~domains:Workloads.parallel_domains in
    (o, t)
  in
  let par = if w.islands then [ parallel () ] else [] in
  (* A traced run measures the untraced and the traced passes in equal
     halves of its time. *)
  let budget = if trace then seconds /. 2.0 else seconds in
  let passes =
    loop ~seconds:budget ~min:3 (fun () -> timed_pass prepared ~domains:1)
  in
  let pass_times = List.map (fun (_, t, _) -> t) passes in
  (* The fastest pass, not the median (and the fastest set-up): on a
     shared host, interference only ever slows a pass, in stretches of
     seconds, and the median of one run follows how many of them it
     caught. A stretch can outlast a run, so the fastest pass is then
     scaled by how much slower than nominal the reference kernel ran at
     its fastest in the same run. NOTES.md has the data. *)
  let raw_pass_s = fastest pass_times in
  let scale = Reference.nominal_s /. fastest !reference_times in
  let host_s = raw_pass_s *. scale in
  let layer = Hashtbl.create 64 in
  let set k v = Hashtbl.replace layer k v in
  let problems = ref [] in
  let traced =
    if not trace then []
    else begin
      Span.on := true;
      (* At most five traced passes: enough for the per-layer quantiles,
         and the spans file stays at a few megabytes. *)
      let rounds =
        loop ~max:5 ~seconds:budget ~min:2 (fun () ->
            let o, t, _ = timed_pass prepared ~domains:1 in
            (o, t))
      in
      let counts, obs_problems = prepared.observed () in
      let probes, probe_problems = prepared.probes reference in
      Span.on := false;
      problems := obs_problems @ probe_problems;
      List.iter (fun (k, v) -> set k v) (reference.counts @ counts @ probes);
      let per_call name scale q = quantile q (Span.per_call_ns name) /. scale in
      let whole name = median (Span.durations_ns name) /. 1e9 in
      let quantiles name scale metric qs =
        List.iter
          (fun (suffix, q) ->
            set (metric ^ "." ^ suffix)
              (quantile q (Span.durations_ns name) /. scale))
          qs
      in
      let p50_p90 = [ ("p50", 0.5); ("p90", 0.9) ]
      and p50_p99 = [ ("p50", 0.5); ("p99", 0.99) ] in
      quantiles "compiler.compile" 1e6 "compiler.compile_ms" p50_p90;
      quantiles "runtime.state_at" 1e3 "runtime.state_at_us" p50_p99;
      quantiles "runtime.transform" 1e3 "runtime.transform_us" p50_p99;
      quantiles "runtime.verify" 1e3 "runtime.verify_us" p50_p99;
      quantiles "sched.scheduler.run" 1e6 "sched.scheduler.run_ms" p50_p90;
      quantiles "sched.scheduler.run.batched" 1e6
        "sched.scheduler.batched_run_ms" p50_p90;
      set "sched.service.ns_per_request" (per_call "sched.service.run" 1.0 0.5);
      let cluster_spans =
        List.map
          (fun (policy, _) -> "sched.cluster." ^ Workloads.metric_name policy)
          Workloads.cluster_jobs
      in
      List.iter
        (fun n ->
          set (n ^ ".host_s") (whole n);
          set (n ^ ".us_per_job") (per_call n 1e3 0.5))
        cluster_spans;
      set "sched.fleet.host_s" (whole "sched.fleet.run");
      let count k = Option.value ~default:0.0 (Hashtbl.find_opt layer k) in
      let windows = count "sim.islands.windows" in
      if windows > 0.0 then begin
        let island_s =
          List.fold_left
            (fun a n -> a +. whole n)
            0.0
            ("sched.service.run" :: "sched.fleet.run" :: cluster_spans)
        in
        set "sim.islands.events_per_window" (count "sim.islands.events" /. windows);
        set "sim.islands.host_us_per_window" (island_s *. 1e6 /. windows)
      end;
      let more_par = if w.islands then [ parallel (); parallel () ] else [] in
      if w.islands then begin
        let par_s = fastest (List.map snd (par @ more_par)) in
        set "sim.islands.seq_host_s" raw_pass_s;
        set "sim.islands.par_host_s" par_s;
        set "sim.islands.speedup" (raw_pass_s /. par_s)
      end;
      set "trace.overhead_s" (fastest (List.map snd rounds) -. raw_pass_s);
      set "host.calibration_ns" calibration;
      set "host.reference_ms" (fastest !reference_times *. 1e3);
      set "host.raw_pass_s" raw_pass_s;
      List.map fst (rounds @ more_par)
    end
  in
  (* Output checks. *)
  let outcomes =
    (reference :: List.map fst par)
    @ List.map (fun (o, _, _) -> o) passes
    @ traced
  in
  List.iter
    (fun (o : Workloads.outcome) ->
      problems := o.problems @ !problems;
      if o.report <> reference.report then
        problems :=
          "rendered reports differ between passes or domain counts" :: !problems;
      if signature o <> signature reference then
        problems := "sim metrics or layer counts differ between passes" :: !problems)
    outcomes;
  let digest = Digest.to_hex (Digest.string reference.report) in
  (match List.find_opt (fun (n, s, _) -> n = w.name && s = seed) digests with
  | Some (_, _, d) when d <> digest ->
    problems :=
      Printf.sprintf "report digest %s is not the committed %s" digest d
      :: !problems
  | _ -> ());
  let problems = List.sort_uniq compare !problems in
  let total f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let attempted = total (fun o -> o.Workloads.attempted) in
  (* A failed check counts every op it covers as failed. *)
  let failed =
    if problems <> [] then attempted else total (fun o -> o.Workloads.failed)
  in
  let value = function
    | "host_s" -> host_s
    | "setup_s" -> fastest !setup_times *. scale
    | "alloc_words_per_op" ->
      median
        (List.map
           (fun ((o : Workloads.outcome), _, words) ->
             words /. float_of_int o.attempted)
           passes)
    | "heap_top_mb" -> heap_top_mb
    | "sim_p99_ms" -> reference.sim_p99_ms
    | "sim_makespan_s" -> reference.sim_makespan_s
    | "sim_energy_kj" -> reference.sim_energy_kj
    | k -> Option.value ~default:0.0 (Hashtbl.find_opt layer k)
  in
  let metrics =
    List.map (fun (k, unit) -> (k, value k, unit))
      (if trace then per_layer else end_to_end)
  in
  {
    correct = problems = [];
    attempted;
    failed;
    metrics;
    problems;
    digest;
    calibration;
    setup_times = List.rev !setup_times;
    pass_times;
    reference_times = List.rev !reference_times;
  }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_list f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (Span.json_string k) (json_number v) (Span.json_string unit))
         ms)
  ^ "}"

let out_dir = ".hetbench"

(* The results file: the metrics with the host they ran on, so results
   from two hosts can be told apart. *)
let write_results (w : Workloads.t) ~seed ~seconds ~trace r =
  let host =
    Printf.sprintf
      "{\"hostname\": %s, \"nproc\": %d, \"ocaml\": %s, \"git_rev\": %s, \
       \"timed_domains\": 1, \"checked_domains\": %d, \"calibration_ns\": %s}"
      (Span.json_string (Unix.gethostname ()))
      (Domain.recommended_domain_count ())
      (Span.json_string Sys.ocaml_version)
      (Span.json_string
         (Option.value ~default:"unknown" (Sys.getenv_opt "HETBENCH_GIT_REV")))
      (if w.islands then Workloads.parallel_domains else 1)
      (json_number r.calibration)
  in
  let path =
    Printf.sprintf "%s/%s-seed%d-trace%d.json" out_dir w.name seed
      (if trace then 1 else 0)
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"host\": %s, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"failed_checks\": %s, \"report_md5\": %s, \"setup_s\": %s, \
     \"pass_s\": %s, \"reference_s\": %s, \"reference_nominal_s\": %s, \
     \"metrics\": %s}\n"
    (Span.json_string w.name) seed (json_number seconds) trace host r.correct
    r.attempted r.failed
    (json_list Span.json_string r.problems)
    (Span.json_string r.digest)
    (json_list json_number r.setup_times)
    (json_list json_number r.pass_times)
    (json_list json_number r.reference_times)
    (json_number Reference.nominal_s)
    (metrics_json r.metrics);
  close_out oc

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0
  and trace = ref 0 in
  let usage = "main.exe --workload NAME|all --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", Arg.Set_int seed, "N input seed (default 42, held out: 7)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("hetbench: " ^ msg);
    exit 2
  in
  let chosen =
    if !workload = "all" then Workloads.all
    else
      match
        List.filter (fun (w : Workloads.t) -> w.name = !workload) Workloads.all
      with
      | [] ->
        fail
          (Printf.sprintf "unknown --workload %S (want %s or all)" !workload
             (String.concat ", "
                (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)))
      | ws -> ws
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  let trace = !trace = 1 in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let results =
    List.map
      (fun (w : Workloads.t) ->
        Span.reset ();
        let r = run_workload w ~seed:!seed ~seconds:!seconds ~trace in
        write_results w ~seed:!seed ~seconds:!seconds ~trace r;
        if trace then
          Span.write_chrome
            (Printf.sprintf "%s/spans-%s-seed%d.json" out_dir w.name !seed);
        Printf.printf
          "%s seed=%d passes=%d correct=%b report_md5=%s\n" w.name !seed
          (List.length r.pass_times) r.correct r.digest;
        List.iter (Printf.printf "  CHECK FAILED: %s\n") r.problems;
        List.iter
          (fun (k, v, u) -> Printf.printf "  %-42s %.6g %s\n" k v u)
          r.metrics;
        (w, r))
      chosen
  in
  let correct = List.for_all (fun (_, r) -> r.correct) results in
  let total f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
  let metrics =
    match results with
    | [ (_, r) ] -> r.metrics
    | rs ->
      List.concat_map
        (fun ((w : Workloads.t), r) ->
          List.map (fun (k, v, u) -> (w.name ^ "." ^ k, v, u)) r.metrics)
        rs
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    correct
    (total (fun r -> r.attempted))
    (total (fun r -> r.failed))
    (metrics_json metrics);
  exit (if correct then 0 else 1)
