(* Global cluster scheduling: the pack-power-cap admission rule and the
   work-steal victim choice against reports captured before either was
   rewritten, the admission rule's exactness, and the CLI-boundary
   checks that keep pack-power-cap and trace replay runs bounded. *)

let check = Alcotest.check
let checkb msg = Alcotest.check Alcotest.bool msg
let checks msg = Alcotest.check Alcotest.string msg

let topology ~nodes ~racks ~mix_name =
  match Sched.Validate.topology ~nodes ~racks ~mix_name with
  | Ok t -> t
  | Error e -> Alcotest.fail e

(* --- golden reports ------------------------------------------------------ *)

type 'cfg golden = {
  nodes : int;
  racks : int;
  mix : string;
  cfg : 'cfg;
  label : string;
  report : string;
}

(* A golden file: "#" comment lines, then cases, each a
   "=== key=value ..." header followed by its report verbatim. [case]
   parses one header and its body lines. *)
let read_golden file case =
  let ic = open_in file in
  let lines =
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
  in
  let rec split acc = function
    | [] -> List.rev acc
    | header :: rest when String.starts_with ~prefix:"=== " header ->
      let rec body b = function
        | l :: rest when not (String.starts_with ~prefix:"=== " l) ->
          body (l :: b) rest
        | rest -> (List.rev b, rest)
      in
      let b, rest = body [] rest in
      split (case header b :: acc) rest
    | _ :: rest -> split acc rest
  in
  split [] lines

let report_of body = String.concat "" (List.map (fun l -> l ^ "\n") body)

(* test/cluster_golden.txt *)
let golden_cases =
  lazy
    (read_golden "cluster_golden.txt" (fun header body ->
         Scanf.sscanf header
           "=== nodes=%d racks=%d mix=%s jobs=%d seed=%d policy=%s cap=%s \
            label=%s"
           (fun nodes racks mix jobs seed policy cap label ->
             let topology = topology ~nodes ~racks ~mix_name:mix in
             let policy =
               match Sched.Cluster.policy_of_name policy with
               | Some p -> p
               | None -> Alcotest.fail ("golden: unknown policy " ^ policy)
             in
             let cfg =
               { (Sched.Cluster.default ~topology ~jobs ~seed) with
                 Sched.Cluster.policy;
                 power_cap_w = float_of_string cap;
               }
             in
             { nodes; racks; mix; cfg; label; report = report_of body })))

let golden_topology ~nodes ~racks ~mix () =
  let cases =
    List.filter
      (fun g -> g.nodes = nodes && g.racks = racks && g.mix = mix)
      (Lazy.force golden_cases)
  in
  (* 3 seeds x (3 pack-power-cap caps + work-steal) *)
  check Alcotest.int "cases for this topology" 12 (List.length cases);
  List.iter
    (fun g ->
      let r = Sched.Cluster.run ~domains:1 g.cfg in
      let name =
        Printf.sprintf "%s seed=%d %s" (Sched.Cluster.policy_name g.cfg.policy)
          g.cfg.seed g.label
      in
      checks (name ^ ": report byte-identical") g.report
        (Sched.Cluster.render g.cfg r);
      match g.label with
      | "tight" -> checkb (name ^ ": cap defers") true (r.deferred > 0)
      | "reached" ->
        checkb (name ^ ": a placement lands exactly on the cap") true
          (r.peak_power_w = g.cfg.power_cap_w)
      | _ -> ())
    cases

(* test/fleet_golden.txt: `hetmig fleet` reports captured while
   Sched.Fleet still ran its own simulator, over seeds x placement x
   migration x fail-rate on three small topologies, plus the CI fleet
   scenarios. Each case runs once; the tests below share the runs. *)
let fleet_runs =
  lazy
    (List.map
       (fun g -> (g, Sched.Fleet.run ~domains:1 g.cfg))
       (read_golden "fleet_golden.txt" (fun header body ->
            Scanf.sscanf header
              "=== nodes=%d racks=%d mix=%s jobs=%d seed=%d placement=%s \
               migration=%s fail-rate=%f"
              (fun nodes racks mix jobs seed placement migration fail_rate ->
                let placement =
                  match placement with
                  | "ll" -> Sched.Fleet.Least_loaded
                  | "rr" -> Sched.Fleet.Round_robin
                  | p -> Alcotest.fail ("golden: unknown placement " ^ p)
                in
                let cfg =
                  { (Sched.Fleet.default ~nodes ~jobs ~seed) with
                    Sched.Fleet.placement;
                    migration = migration = "on";
                    fail_rate;
                    topology = topology ~nodes ~racks ~mix_name:mix;
                  }
                in
                let label =
                  Printf.sprintf "%s seed=%d migration=%s fail-rate=%g"
                    (Sched.Fleet.placement_name placement) seed migration
                    fail_rate
                in
                { nodes; racks; mix; cfg; label; report = report_of body }))))

let fleet_golden ~nodes ~racks ~mix ~cases () =
  let runs =
    List.filter
      (fun (g, _) -> g.nodes = nodes && g.racks = racks && g.mix = mix)
      (Lazy.force fleet_runs)
  in
  check Alcotest.int "cases for this topology" cases (List.length runs);
  List.iter
    (fun (g, r) ->
      checks (g.label ^ ": report byte-identical") g.report
        (Sched.Fleet.render g.cfg r))
    runs

(* The goldens pin the failure/retry path and the balancing migration
   only if some case actually takes them. *)
let fleet_golden_not_vacuous () =
  let runs = List.map snd (Lazy.force fleet_runs) in
  let some what f = checkb ("some case has " ^ what) true (List.exists f runs) in
  some "failed > 0" (fun r -> r.Sched.Fleet.failed > 0);
  some "retried_phases > 0" (fun r -> r.Sched.Fleet.retried_phases > 0);
  some "migrations > 0" (fun r -> r.Sched.Fleet.migrations > 0)

(* --- admission exactness ------------------------------------------------- *)

(* The O(1) estimate must decide exactly as the exact sum would, most of
   all for caps that sit on a projected sum or one ulp either side,
   where the estimate's rounding could flip a naive comparison. *)
let qcheck_admission_exact =
  QCheck.Test.make
    ~name:"pack-power-cap admission equals the exact projected <= cap"
    ~count:300 QCheck.small_nat (fun seed ->
      let rng = Sim.Prng.create seed in
      let racks = 1 + Sim.Prng.int rng 4 in
      let nodes_per_rack = 1 + Sim.Prng.int rng 40 in
      let mix =
        Sim.Prng.choice rng
          Machine.Topology.[| Alternate; Isa_racks; X86_only; Arm_only |]
      in
      let topo = Machine.Topology.make ~mix ~racks ~nodes_per_rack () in
      let n = Machine.Topology.nodes topo in
      let adm = Sched.Cluster.Admission.create topo in
      let loads =
        Array.init n (fun i ->
            let cores = (Machine.Topology.server topo i).Machine.Server.cores in
            Sim.Prng.int rng (2 * cores + 1))
      in
      let extra = 1 + Sim.Prng.int rng 8 in
      let base = Sched.Cluster.Admission.projected adm loads ~on:(-1) ~extra:0 in
      let sums =
        Array.init n (fun on ->
            Sched.Cluster.Admission.projected adm loads ~on ~extra)
      in
      let on_sums =
        List.init 6 (fun _ ->
            let s = sums.(Sim.Prng.int rng n) in
            [ s; Float.pred s; Float.succ s ])
      in
      let caps =
        base :: Sim.Prng.float rng (2.0 *. base) :: List.concat on_sums
      in
      List.for_all
        (fun cap ->
          List.for_all
            (fun on ->
              Sched.Cluster.Admission.admits adm loads ~base ~cap ~on ~extra
              = (sums.(on) <= cap))
            (List.init n Fun.id))
        caps)

(* --- bounded runs: caps below the idle cluster's floor -------------------- *)

let power_cap_floor () =
  let topo = topology ~nodes:16 ~racks:2 ~mix_name:"alternate" in
  (* 8 x86 nodes idle at 46 W, 8 arm64 at 42 W; a 4-thread job on an
     8-core arm64 node adds 15 W, the cheapest placement. *)
  check (Alcotest.float 0.0) "16-node floor" 719.0
    (Sched.Cluster.min_power_cap topo);
  let cfg =
    { (Sched.Cluster.default ~topology:topo ~jobs:20 ~seed:42) with
      Sched.Cluster.policy = Sched.Cluster.Pack_power_cap;
      power_cap_w = 100.0;
    }
  in
  (match Sched.Cluster.run cfg with
  | _ -> Alcotest.fail "a cap below the floor must be rejected"
  | exception Invalid_argument m ->
    checks "run rejects the cap"
      "Cluster.run: power cap 100W is below the minimum admissible 719W" m);
  let at_floor =
    Sched.Cluster.run { cfg with Sched.Cluster.power_cap_w = 719.0 }
  in
  check Alcotest.int "a cap at the floor still drains the queue" 20
    at_floor.Sched.Cluster.completed;
  let edp =
    Sched.Cluster.run { cfg with Sched.Cluster.policy = Sched.Cluster.Edp_migrate }
  in
  check Alcotest.int "other policies ignore the cap" 20
    edp.Sched.Cluster.completed

let validate_power_cap () =
  let err = function Error e -> e | Ok _ -> Alcotest.fail "expected Error" in
  let small = topology ~nodes:16 ~racks:2 ~mix_name:"alternate" in
  let big = topology ~nodes:256 ~racks:8 ~mix_name:"alternate" in
  checks "names the flag and the minimum"
    "--power-cap 100 is below the minimum admissible 719.0 W for this \
     topology (the idle draw plus the widest job on its cheapest node)"
    (err (Sched.Validate.power_cap ~topology:small 100.0));
  checks "256 nodes x 8 racks"
    "--power-cap 9000 is below the minimum admissible 11279.0 W for this \
     topology (the idle draw plus the widest job on its cheapest node)"
    (err (Sched.Validate.power_cap ~topology:big 9000.0));
  checks "non-positive caps keep their message"
    "--power-cap must be a positive number (got -5)"
    (err (Sched.Validate.power_cap ~topology:small (-5.0)));
  checkb "the floor itself is admissible" true
    (Sched.Validate.power_cap ~topology:small 719.0 = Ok 719.0);
  (* x86-only: 46 W idle each, a 4-thread job adds 68 x 4/6 W; the
     shown minimum is rounded up so it is itself admissible. *)
  let x86 = topology ~nodes:4 ~racks:1 ~mix_name:"x86-only" in
  let m = err (Sched.Validate.power_cap ~topology:x86 100.0) in
  checks "rounded-up minimum"
    "--power-cap 100 is below the minimum admissible 229.4 W for this \
     topology (the idle draw plus the widest job on its cheapest node)"
    m;
  checkb "the shown minimum passes" true
    (Result.is_ok (Sched.Validate.power_cap ~topology:x86 229.4))

(* --- bounded runs: malformed replay traces -------------------------------- *)

let with_trace contents f =
  let path = Filename.temp_file "hetmig_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let validate_trace_file () =
  let err = function Error e -> e | Ok _ -> Alcotest.fail "expected Error" in
  let header = "# hetmig-request-trace v1 services=2 name=t\n" in
  with_trace (header ^ "0.5 0\n1.0 1\n") (fun path ->
      checkb "a well-formed trace passes" true
        (Sched.Validate.trace_file path = Ok path));
  with_trace "garbage\n0.5 0\n" (fun path ->
      checks "bad header names flag, path and line"
        (Printf.sprintf
           "--trace-file: %s, line 1: expected '# hetmig-request-trace v1 \
            services=<n> name=<s>'"
           path)
        (err (Sched.Validate.trace_file path)));
  with_trace (header ^ "0.5 0\n1.0 zz\n") (fun path ->
      checks "bad body line"
        (Printf.sprintf "--trace-file: %s, line 3: expected '<at> <svc>'" path)
        (err (Sched.Validate.trace_file path));
      (* The library readers keep raising [Invalid_argument]. *)
      match Sched.Arrival.of_file path with
      | _ -> Alcotest.fail "of_file must reject the trace"
      | exception Invalid_argument m ->
        checks "of_file message unchanged"
          (Printf.sprintf "Arrival.of_file %s, line 3: expected '<at> <svc>'"
             path)
          m);
  with_trace (header ^ "0.5 0\n0.2 1\n") (fun path ->
      checks "out-of-order line"
        (Printf.sprintf
           "--trace-file: %s, line 3: trace not in canonical (at, svc) \
            order; use Arrival.of_file"
           path)
        (err (Sched.Validate.trace_file path)));
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "hetmig-no-such-trace" in
  checks "missing file"
    (Printf.sprintf "--trace-file: %s: No such file or directory" missing)
    (err (Sched.Validate.trace_file missing))

let suite =
  [
    Alcotest.test_case "golden: flat 16 nodes" `Quick
      (golden_topology ~nodes:16 ~racks:1 ~mix:"alternate");
    Alcotest.test_case "golden: 4x16 alternate" `Quick
      (golden_topology ~nodes:64 ~racks:4 ~mix:"alternate");
    Alcotest.test_case "golden: 8x32 isa-racks" `Quick
      (golden_topology ~nodes:256 ~racks:8 ~mix:"isa-racks");
    (* 3 seeds x placement x migration x fail-rate, plus one fail-rate
       0.3 case each *)
    Alcotest.test_case "fleet golden: flat 8 nodes" `Quick
      (fleet_golden ~nodes:8 ~racks:1 ~mix:"alternate" ~cases:25);
    Alcotest.test_case "fleet golden: 4x4 alternate" `Quick
      (fleet_golden ~nodes:16 ~racks:4 ~mix:"alternate" ~cases:25);
    Alcotest.test_case "fleet golden: 2x8 isa-racks" `Quick
      (fleet_golden ~nodes:16 ~racks:2 ~mix:"isa-racks" ~cases:25);
    Alcotest.test_case "fleet golden: CI flat 64 nodes" `Quick
      (fleet_golden ~nodes:64 ~racks:1 ~mix:"alternate" ~cases:2);
    Alcotest.test_case "fleet golden: CI 4x16 alternate" `Quick
      (fleet_golden ~nodes:64 ~racks:4 ~mix:"alternate" ~cases:1);
    Alcotest.test_case "fleet golden: not vacuous" `Quick
      fleet_golden_not_vacuous;
    QCheck_alcotest.to_alcotest qcheck_admission_exact;
    Alcotest.test_case "power cap floor bounds pack-power-cap" `Quick
      power_cap_floor;
    Alcotest.test_case "validate: power cap floor" `Quick validate_power_cap;
    Alcotest.test_case "validate: trace file" `Quick validate_trace_file;
  ]
