(* The workloads. Each builds its inputs from the seed ([prepare],
   the timed set-up), then runs passes over the library's public entry
   points. A pass returns the program's rendered reports, its op and
   failure counts, the results of the output checks, the simulated
   end-to-end statistics and the per-layer counts the result records
   carry. Why each workload exists is in NOTES.md. *)

type outcome = {
  report : string;  (** the program's rendered reports, byte-stable *)
  attempted : int;
  failed : int;
  problems : string list;  (** output checks that did not hold *)
  sim_p99_ms : float;
  sim_makespan_s : float;
  sim_energy_kj : float;
  counts : (string * float) list;
}

type prepared = {
  pass : domains:int -> outcome;
  observed : unit -> (string * float) list * string list;
      (** traced runs only: the same calls with an [Obs] sink passed in;
          the sink's counters, and the checks made on them *)
  probes : outcome -> (string * float) list * string list;
      (** traced runs only: batched timings of single layer kernels, and
          the checks made on them *)
}

type t = {
  name : string;
  islands : bool;
      (** the workload runs on [Sim.Islands]: each run also makes a pass
          at [parallel_domains], outside the timed region *)
  prepare : seed:int -> prepared;
}

let parallel_domains = 2

let fi = float_of_int

let check problems cond msg = if not cond then problems := msg :: !problems

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between order statistics; 0 for no samples. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let pos = q *. fi (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. fi lo) *. (a.(hi) -. a.(lo)))

(* Time [batches] spans of [batch] calls of [step] each and return the
   median nanoseconds per call. Only traced runs call probes, so the
   spans are always recorded. *)
let batched name ~batches ~batch step =
  for _ = 1 to batches do
    Span.with_ ~calls:batch name (fun () ->
        for i = 1 to batch do
          step i
        done)
  done;
  median (Span.per_call_ns name)

(* ---- serving ------------------------------------------------------- *)

let count_requests ~limit source =
  let s = Sched.Arrival.open_stream ~limit source in
  let n = ref 0 in
  while Sched.Arrival.next s do
    incr n
  done;
  Sched.Arrival.close_stream s;
  !n

(* Pulls from the workload's source, reopened when it runs dry. *)
let arrival_pull_ns source =
  let s = ref (Sched.Arrival.open_stream source) in
  let ns =
    batched "sched.arrival.next" ~batches:16 ~batch:16_384 (fun _ ->
        if not (Sched.Arrival.next !s) then begin
          Sched.Arrival.close_stream !s;
          s := Sched.Arrival.open_stream source
        end)
  in
  Sched.Arrival.close_stream !s;
  ns

(* Calendar push/pop in steady state at a fixed depth: pop the earliest
   event, push one a pseudo-random delay later. *)
let calendar_push_pop_ns ~seed ~depth =
  let cal = Sim.Calendar.create ~dummy:0 () in
  let prng = Sim.Prng.create seed in
  let delays = Array.init 4096 (fun _ -> Sim.Prng.float prng 1.0) in
  let seq = ref 0 in
  for i = 0 to depth - 1 do
    incr seq;
    Sim.Calendar.push cal ~time:delays.(i land 4095) ~src:0 ~seq:!seq i
  done;
  batched "sim.calendar.push_pop" ~batches:16 ~batch:65_536 (fun i ->
      let v = Sim.Calendar.pop cal in
      incr seq;
      Sim.Calendar.push cal
        ~time:(Sim.Calendar.last_time cal +. delays.(i land 4095))
        ~src:0 ~seq:!seq v)

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* The >= 1M-request acceptance scenario of the throughput bench (static
   x86, light uniform demand, 32 services bursting at 400 req/s), with
   1 s / 3 s on/off sojourns instead of 10 s / 30 s, capped at 1,000,000
   requests: every seed then serves the same number of requests, and the
   simulated span varies by ~3% between seeds rather than ~12%. *)
let serve_config ~seed =
  let source =
    Sched.Arrival.bursty_source ~rate_high:400.0 ~rate_low:2.0 ~mean_on:1.0
      ~mean_off:3.0 ~seed ~services:32 ~duration_s:400.0 ()
  in
  {
    (Sched.Service.default ~nodes:32 ~seed ~source) with
    Sched.Service.policy = Sched.Service.Static_x86;
    demand_instructions = 2e6;
    demand_sigma = 0.0;
    limit = 1_000_000;
  }

let serve_stream =
  let prepare ~seed =
    let cfg = serve_config ~seed in
    let expected = count_requests ~limit:cfg.limit cfg.source in
    let pass ~domains =
      let w0 = minor_words () in
      let r =
        Span.with_ ~calls:expected "sched.service.run" (fun () ->
            Sched.Service.run ~domains cfg)
      in
      let words = minor_words () -. w0 in
      let open Sched.Service in
      let problems = ref [] in
      check problems
        (r.responded + r.dropped + r.in_flight_at_end = r.arrived)
        "request conservation: responded + dropped + in_flight <> arrived";
      check problems (r.arrived = expected)
        (Printf.sprintf "arrived %d <> %d requests in the source" r.arrived
           expected);
      {
        report = render cfg r;
        attempted = r.arrived;
        failed = r.dropped;
        problems = !problems;
        sim_p99_ms = r.p99_ms;
        sim_makespan_s = r.makespan;
        sim_energy_kj = r.total_energy_j /. 1e3;
        counts =
          [
            ("sched.service.responded", fi r.responded);
            ("sched.service.dropped", fi r.dropped);
            ("sched.service.minor_words_per_request", words /. fi r.arrived);
            ("sim.islands.windows", fi r.windows);
            ("sim.islands.events", fi r.events);
          ];
      }
    in
    let observed () =
      let obs = Obs.create () in
      let r = Sched.Service.run ~domains:1 ~obs cfg in
      let c name = Option.value ~default:0 (Obs.counter_value obs name) in
      let problems = ref [] in
      let open Sched.Service in
      check problems
        (c "serve.arrived" = r.arrived
        && c "serve.responded" = r.responded
        && c "serve.dropped" = r.dropped)
        "serve.* Obs counters disagree with the result record";
      ([], !problems)
    in
    let probes (o : outcome) =
      (* Events per window is how many events the island calendars hold
         between barriers: the depth the request path runs at. *)
      let depth =
        max 1
          (int_of_float
             (List.assoc "sim.islands.events" o.counts
             /. List.assoc "sim.islands.windows" o.counts))
      in
      ( [
          ("sched.arrival.pull_ns", arrival_pull_ns cfg.source);
          ("sim.calendar.push_pop_ns", calendar_push_pop_ns ~seed ~depth);
        ],
        [] )
    in
    { pass; observed; probes }
  in
  { name = "serve_stream"; islands = true; prepare }

(* ---- warehouse cluster --------------------------------------------- *)

let metric_name policy =
  String.map (fun c -> if c = '-' then '_' else c)
    (Sched.Cluster.policy_name policy)

(* [Topology.transfer_time] of one page over seed-drawn node pairs. *)
let transfer_ns topology ~seed =
  let n = Machine.Topology.nodes topology in
  let prng = Sim.Prng.create seed in
  let pairs =
    Array.init 4096 (fun _ -> (Sim.Prng.int prng n, Sim.Prng.int prng n))
  in
  let sink = ref 0.0 in
  let ns =
    batched "machine.topology.transfer_time" ~batches:16 ~batch:65_536
      (fun i ->
        let src, dst = pairs.(i land 4095) in
        sink :=
          !sink +. Machine.Topology.transfer_time topology ~src ~dst ~bytes:4096)
  in
  ignore (Sys.opaque_identity !sink);
  ns

(* pack-power-cap keeps the [hetmig cluster] default of 2000 jobs, which
   already takes most of a pass; the other policies and the 64-node
   fleet get enough jobs (0.3-0.5 s each) that a regression in any one of
   them moves host_s. *)
let cluster_jobs =
  [
    (Sched.Cluster.Pack_power_cap, 2000);
    (Sched.Cluster.Edp_migrate, 12_000);
    (Sched.Cluster.Work_steal, 12_000);
  ]

let fleet_jobs = 10_000

let cluster_rack =
  let prepare ~seed =
    let topology = Machine.Topology.make ~racks:8 ~nodes_per_rack:32 () in
    let configs =
      List.map
        (fun (policy, jobs) ->
          { (Sched.Cluster.default ~topology ~jobs ~seed) with
            Sched.Cluster.policy })
        cluster_jobs
    in
    let fleet = Sched.Fleet.default ~nodes:64 ~jobs:fleet_jobs ~seed in
    let pass ~domains =
      let problems = ref [] in
      let runs =
        List.map
          (fun (cfg : Sched.Cluster.config) ->
            let r =
              Span.with_ ~calls:cfg.jobs
                ("sched.cluster." ^ metric_name cfg.policy)
                (fun () -> Sched.Cluster.run ~domains cfg)
            in
            check problems
              (r.Sched.Cluster.completed = cfg.jobs)
              (Printf.sprintf "cluster %s completed %d of %d jobs"
                 (Sched.Cluster.policy_name cfg.policy)
                 r.Sched.Cluster.completed cfg.jobs);
            (cfg, r))
          configs
      in
      let f =
        Span.with_ ~calls:fleet.jobs "sched.fleet.run" (fun () ->
            Sched.Fleet.run ~domains fleet)
      in
      let open Sched.Fleet in
      check problems
        (f.completed = fleet.jobs && f.failed = 0)
        (Printf.sprintf "fleet completed %d and failed %d of %d jobs"
           f.completed f.failed fleet.jobs);
      let cr = List.map snd runs in
      let sum g = List.fold_left (fun a r -> a +. g r) 0.0 cr in
      let submitted =
        List.fold_left (fun a (c, _) -> a + c.Sched.Cluster.jobs) fleet.jobs runs
      in
      let completed =
        List.fold_left (fun a r -> a + r.Sched.Cluster.completed) f.completed cr
      in
      {
        report =
          String.concat ""
            (List.map (fun (c, r) -> Sched.Cluster.render c r) runs
            @ [ render fleet f ]);
        attempted = submitted;
        failed = submitted - completed;
        problems = !problems;
        (* The mean over the four runs of their p99 job latency. *)
        sim_p99_ms =
          1e3
          *. (sum (fun r -> r.Sched.Cluster.p99_latency_s) +. f.p99_latency_s)
          /. fi (List.length cr + 1);
        sim_makespan_s = sum (fun r -> r.Sched.Cluster.makespan) +. f.makespan;
        sim_energy_kj =
          (sum (fun r -> r.Sched.Cluster.total_energy_j) +. f.total_energy_j)
          /. 1e3;
        counts =
          [
            ("sched.cluster.migrations", sum (fun r -> fi r.Sched.Cluster.migrations));
            ("sched.cluster.steals", sum (fun r -> fi r.Sched.Cluster.steals));
            ("sched.cluster.deferred", sum (fun r -> fi r.Sched.Cluster.deferred));
            ("sched.fleet.failed", fi f.failed);
            ("sched.fleet.retried_phases", fi f.retried_phases);
            ( "sim.islands.windows",
              sum (fun r -> fi r.Sched.Cluster.windows) +. fi f.windows );
            ( "sim.islands.events",
              sum (fun r -> fi r.Sched.Cluster.events) +. fi f.events );
          ];
      }
    in
    let probes _ =
      ([ ("machine.topology.transfer_ns", transfer_ns topology ~seed) ], [])
    in
    { pass; observed = (fun () -> ([], [])); probes }
  in
  { name = "cluster_rack"; islands = true; prepare }

(* ---- the paper's stack --------------------------------------------- *)

(* Every seed schedules the same jobs in a seed-shuffled order, so seeds
   change the schedule, not the amount of work: each set holds twice
   each of the six small class-A jobs of the pool (0.6-5 G instructions,
   at most 56 MiB) at each thread count [Sched.Arrival.sustained] draws
   from. A run's host time follows the pages its few migrations move,
   and its makespan the start of its longest job. With uniform draws,
   the B and C classes, FT.A (87,040 pages) or BT.A and SP.A (10-25x the
   instructions of the rest), either swung two- to fivefold with the
   seed. *)
let scheduler_sets = 16

let job_sets ~seed =
  let small (bench, cls) =
    cls = Workload.Spec.A && not (List.mem bench Workload.Spec.[ FT; BT; SP ])
  in
  let pool =
    List.concat_map
      (fun entry ->
        let bench, cls = entry in
        if small entry then
          List.concat_map (fun t -> [ (bench, cls, t); (bench, cls, t) ]) [ 1; 2; 4 ]
        else [])
      Sched.Arrival.job_pool
  in
  let prng = Sim.Prng.create seed in
  List.init scheduler_sets (fun _ ->
      let jobs = Array.of_list pool in
      Sim.Prng.shuffle prng jobs;
      Array.to_list
        (Array.mapi
           (fun jid (bench, cls, threads) ->
             Sched.Job.make ~jid ~spec:(Workload.Spec.spec bench cls) ~threads
               ~arrival:0.0)
           jobs))

(* Migrations asked of the Het facade at seed-drawn (binary, source ISA,
   position among the binary's migration points) triples. The sweep of
   every point is the same for every seed; this sample is what gives the
   workload's simulated latency tail a seed. *)
let migrate_samples = 2048

let draw_migrations ~seed programs =
  let prng = Sim.Prng.create (seed + 1) in
  let names = Array.of_list (List.map fst programs) in
  let arches = Array.of_list Isa.Arch.all in
  List.init migrate_samples (fun _ ->
      let name = Sim.Prng.choice prng names in
      let arch = Sim.Prng.choice prng arches in
      (name, arch, Sim.Prng.float prng 1.0))

let engine_push_pop_ns ~seed =
  let e = Sim.Engine.create () in
  let prng = Sim.Prng.create seed in
  let delays = Array.init 4096 (fun _ -> Sim.Prng.float prng 1.0) in
  let left = ref 0 in
  let rec fire i () =
    if !left > 0 then begin
      decr left;
      Sim.Engine.schedule_in e ~after:delays.(i land 4095) (fire (i + 1))
    end
  in
  let batch = 65_536 and depth = 64 in
  for _ = 1 to 16 do
    left := batch - depth;
    for i = 0 to depth - 1 do
      Sim.Engine.schedule_in e ~after:delays.(i) (fire i)
    done;
    Span.with_ ~calls:batch "sim.engine.push_pop" (fun () -> Sim.Engine.run e)
  done;
  median (Span.per_call_ns "sim.engine.push_pop")

let interconnect = Machine.Interconnect.dolphin_pxh810

(* Write ping-pong: every access is a remote fetch plus invalidation. *)
let dsm_access_ns problems =
  let d = Dsm.Hdsm.create ~nodes:2 ~interconnect () in
  let pages = 256 in
  Dsm.Hdsm.register_range d
    ~range:{ Memsys.Page.first = 0; count = pages }
    ~owner:0;
  let node = ref 1 in
  let ns =
    batched "dsm.hdsm.access" ~batches:16 ~batch:(2 * pages) (fun i ->
        ignore (Dsm.Hdsm.access d ~node:!node ~page:(i mod pages) ~write:true);
        if i mod pages = 0 then node := 1 - !node)
  in
  let s = Dsm.Hdsm.stats d in
  check problems
    (s.Dsm.Hdsm.remote_fetches = 16 * 2 * pages && s.Dsm.Hdsm.local_hits = 0)
    "hdsm write ping-pong: every access must be one remote fetch";
  ns

(* One batched fetch moves a 64-page run between the two nodes. *)
let dsm_fetch_run_ns problems =
  let d = Dsm.Hdsm.create ~batch:true ~nodes:2 ~interconnect () in
  let count = 64 in
  Dsm.Hdsm.register_range d ~range:{ Memsys.Page.first = 0; count } ~owner:0;
  let misses = ref 0 in
  let ns =
    batched "dsm.hdsm.fetch_run" ~batches:16 ~batch:4096 (fun i ->
        match
          Dsm.Hdsm.fetch_run d ~node:(i land 1) ~first:0 ~count ~write:true
        with
        | Some _ -> ()
        | None -> incr misses)
  in
  check problems (!misses = 0) "hdsm fetch_run refused a uniform run";
  ns

let paper_ensemble =
  let prepare ~seed =
    let programs =
      List.concat_map
        (fun bench ->
          List.map
            (fun cls ->
              ( (Workload.Spec.spec bench cls).Workload.Spec.name,
                Workload.Programs.program bench cls ))
            Workload.Spec.classes)
        Workload.Spec.all_benches
    in
    let sets = job_sets ~seed in
    let migrations = draw_migrations ~seed programs in
    let runs =
      List.concat_map
        (fun jobs ->
          List.concat_map
            (fun policy -> [ (policy, false, jobs); (policy, true, jobs) ])
            Sched.Policy.all)
        sets
    in
    let schedule ?obs (policy, batched, jobs) =
      Sched.Scheduler.run ?obs ~dsm_batch:batched ~prefetch:batched policy jobs
    in
    let render_run (_, batched, jobs) (r : Sched.Scheduler.result) =
      Format.asprintf
        "%a dsm_batch=%b jobs=%d makespan=%h energy=%h downtime=%h drain=%h \
         fetches=%d rejected=%d failed=%d@."
        Sched.Scheduler.pp_result r batched (List.length jobs) r.makespan
        r.total_energy r.downtime_s r.drain_time_s r.remote_fetches r.rejected
        r.failed
    in
    let pass ~domains:_ =
      let problems = ref [] in
      let report = Buffer.create 4096 in
      let binaries =
        List.map
          (fun (name, prog) ->
            (name, Span.with_ "compiler.compile" (fun () -> Hetmig.Het.compile prog)))
          programs
      in
      let transforms = ref 0 and errors = ref 0 and unverified = ref 0 in
      let sim_us = ref [] in
      List.iter
        (fun (name, binary) ->
          let sites = Hetmig.Het.migration_points binary in
          let sum = ref 0.0 in
          List.iter
            (fun arch ->
              List.iter
                (fun (fname, mig_id) ->
                  incr transforms;
                  match
                    Span.with_ "runtime.state_at" (fun () ->
                        Runtime.Interp.state_at binary arch ~fname ~mig_id)
                  with
                  | None -> incr errors
                  | Some st -> (
                    match
                      Span.with_ "runtime.transform" (fun () ->
                          Runtime.Transform.transform binary st)
                    with
                    | Error _ -> incr errors
                    | Ok (dst, cost) -> (
                      let us = Runtime.Transform.latency_us cost in
                      sum := !sum +. us;
                      sim_us := us :: !sim_us;
                      match
                        Span.with_ "runtime.verify" (fun () ->
                            Runtime.Transform.verify binary st dst)
                      with
                      | Ok () -> ()
                      | Error _ -> incr unverified)))
                sites)
            Isa.Arch.all;
          Printf.bprintf report "%s points=%d sites=%d transform_us=%h\n" name
            binary.Compiler.Toolchain.migration_points (List.length sites) !sum)
        binaries;
      check problems (!errors = 0)
        (Printf.sprintf "%d of %d transforms failed" !errors !transforms);
      check problems (!unverified = 0)
        (Printf.sprintf "%d transformed states failed Transform.verify"
           !unverified);
      let results =
        List.map
          (fun spec ->
            let _, batched, jobs = spec in
            let r =
              Span.with_ ~calls:(List.length jobs)
                (if batched then "sched.scheduler.run.batched"
                 else "sched.scheduler.run")
                (fun () -> schedule spec)
            in
            let open Sched.Scheduler in
            check problems
              (r.completed + r.rejected + r.failed = List.length jobs)
              "job conservation: completed + rejected + failed <> submitted";
            Buffer.add_string report (render_run spec r);
            r)
          runs
      in
      let migrated =
        List.filter_map
          (fun (name, from_, at) ->
            let binary = List.assoc name binaries in
            let sites = Array.of_list (Hetmig.Het.migration_points binary) in
            let n = Array.length sites in
            let site = sites.(min (n - 1) (int_of_float (at *. fi n))) in
            match
              Span.with_ "het.migrate_at" (fun () ->
                  Hetmig.Het.migrate_at binary ~from_ ~site)
            with
            | Ok m when m.Hetmig.Het.verified -> Some m.Hetmig.Het.latency_us
            | Ok _ | Error _ -> None)
          migrations
      in
      let bad_migrations = migrate_samples - List.length migrated in
      check problems (bad_migrations = 0)
        (Printf.sprintf "%d Het.migrate_at calls failed or did not verify"
           bad_migrations);
      Printf.bprintf report "migrate_at latency_us=%h\n"
        (List.fold_left ( +. ) 0.0 migrated);
      let sum g = List.fold_left (fun a r -> a +. g r) 0.0 results in
      let jobs = List.fold_left (fun a (_, _, js) -> a + List.length js) 0 runs in
      let lost =
        List.fold_left
          (fun a r -> a + r.Sched.Scheduler.rejected + r.Sched.Scheduler.failed)
          0 results
      in
      let cache_hits, cache_misses = Kernel.Popcorn.latency_cache_stats () in
      let memo_hits, memo_misses = Workload.Spec.phase_memo_stats () in
      {
        report = Buffer.contents report;
        attempted = !transforms + migrate_samples + jobs;
        failed = !errors + !unverified + bad_migrations + lost;
        problems = !problems;
        (* Read off a log histogram, as the serving path reads its p99:
           the latencies take few distinct values, and an order
           statistic would land on the same one for most seeds. *)
        sim_p99_ms =
          Sim.Stats.percentile
            (Sim.Stats.log_histogram ~base:1.02 ~buckets:512 migrated)
            0.99
          /. 1e3;
        sim_makespan_s = sum (fun r -> r.Sched.Scheduler.makespan);
        sim_energy_kj = sum (fun r -> r.Sched.Scheduler.total_energy) /. 1e3;
        counts =
          [
            ("compiler.binaries", fi (List.length binaries));
            ( "compiler.migration_points",
              fi
                (List.fold_left
                   (fun a (_, b) -> a + b.Compiler.Toolchain.migration_points)
                   0 binaries) );
            ("runtime.transforms", fi !transforms);
            ("runtime.transform_errors", fi !errors);
            ("runtime.verify_failures", fi !unverified);
            ("runtime.transform_sim_us.p50", quantile 0.5 !sim_us);
            ("runtime.transform_sim_us.p99", quantile 0.99 !sim_us);
            ("kernel.latency_cache.hits", fi cache_hits);
            ("kernel.latency_cache.misses", fi cache_misses);
            ("workload.phase_memo.hits", fi memo_hits);
            ("workload.phase_memo.misses", fi memo_misses);
            ( "dsm.remote_fetches",
              sum (fun r -> fi r.Sched.Scheduler.remote_fetches) );
            ("dsm.drain_sim_s", sum (fun r -> r.Sched.Scheduler.drain_time_s));
          ];
      }
    in
    let observed () =
      let problems = ref [] in
      let total = Hashtbl.create 16 in
      let add k v =
        Hashtbl.replace total k (v +. Option.value ~default:0.0 (Hashtbl.find_opt total k))
      in
      let rpc = ref [] in
      List.iter
        (fun run ->
          let obs = Obs.create () in
          let r = schedule ~obs run in
          check problems
            (render_run run r = render_run run (schedule run))
            "scheduler result differs with the Obs sink on";
          let c name = fi (Option.value ~default:0 (Obs.counter_value obs name)) in
          let g name = Option.value ~default:0.0 (Obs.gauge_value obs name) in
          List.iter
            (fun kind ->
              let k = Kernel.Message.kind_to_string kind in
              add "kernel.msg_sent" (c ("msg.sent." ^ k));
              add "kernel.msg_failed" (c ("msg.failed." ^ k)))
            Kernel.Message.all_kinds;
          add "kernel.migrations" (c "popcorn.migrations");
          add "kernel.migration_aborts" (c "popcorn.migration_aborts");
          add "local_hits" (g "dsm.local_hits");
          add "dsm.remote_fetches" (g "dsm.remote_fetches");
          add "dsm.protocol_msgs" (g "dsm.protocol_msgs");
          add "dsm.bytes_transferred" (g "dsm.bytes_transferred");
          rpc := Option.value ~default:[] (Obs.histogram_samples obs "msg.rpc_us") @ !rpc)
        runs;
      let v k = Option.value ~default:0.0 (Hashtbl.find_opt total k) in
      let hits = v "local_hits" and fetches = v "dsm.remote_fetches" in
      ( [
          ("kernel.msg_sent", v "kernel.msg_sent");
          ("kernel.msg_failed", v "kernel.msg_failed");
          ("kernel.rpc_sim_us.p50", quantile 0.5 !rpc);
          ("kernel.rpc_sim_us.p99", quantile 0.99 !rpc);
          ("kernel.migrations", v "kernel.migrations");
          ("kernel.migration_aborts", v "kernel.migration_aborts");
          ("dsm.protocol_msgs", v "dsm.protocol_msgs");
          ("dsm.bytes_transferred", v "dsm.bytes_transferred");
          ("dsm.local_hit_ratio",
           if hits +. fetches > 0.0 then hits /. (hits +. fetches) else 0.0);
        ],
        !problems )
    in
    let probes _ =
      let problems = ref [] in
      let m =
        [
          ("sim.engine.push_pop_ns", engine_push_pop_ns ~seed);
          ("dsm.access_ns", dsm_access_ns problems);
          ("dsm.fetch_run_ns", dsm_fetch_run_ns problems);
        ]
      in
      (m, !problems)
    in
    { pass; observed; probes }
  in
  { name = "paper_ensemble"; islands = false; prepare }

let all = [ serve_stream; cluster_rack; paper_ensemble ]
