(* The warehouse simulator: jobs scheduled over a `Machine.Topology`
   by policies that choose *which node* as well as *which ISA*. Both
   `hetmig cluster` and `hetmig fleet` run it; `Sched.Fleet` is only a
   preset of this model.

   The paper's scheduling study (Section 6) and `Sched.Scheduler` pick
   between exactly two machines. The policies here are global:

     - [Pack_power_cap]: power-capped bin packing. Jobs are packed onto
       the fewest, fullest nodes whose projected cluster power stays
       under a global cap — admission blocks rather than busting the
       budget, the datacenter-operator view of the paper's energy story.
     - [Edp_migrate]: energy/EDP-aware global dynamic migration. Jobs
       are placed on the node whose ISA executes their category most
       efficiently (throughput per watt), and every epoch the scheduler
       hunts for the worst-placed running job and migrates it to the
       best node with room — cross-ISA and cross-rack when worthwhile,
       the warehouse generalisation of the paper's dynamic policies.
     - [Work_steal]: cheap local placement (round robin) plus idle
       nodes stealing queued work from the most-loaded victim, nearest
       rack first — migration cost makes in-rack theft strictly better.
     - [Balance]: the fleet preset ("Instruction Set Migration at
       Warehouse Scale"). Least-loaded or round-robin placement and,
       when enabled, one migration per epoch from the most to the least
       loaded node.

   Any policy may run with a per-phase failure rate: a failed phase
   retries up to a budget, then the job fails.

   Island 0 is the scheduler at the cluster head, islands 1..N the
   topology's nodes, all control traffic batched per [epoch_s] and
   carried over its path through the rack fabric, so the per-edge
   minimum delay (epoch + path latency) is the runtime's topology-aware
   lookahead matrix. Every node island owns its state outright — running
   set, busy cores, energy integral, PRNG stream for phase locality and
   failure draws; the scheduler owns the queue and its load estimates,
   updated only by messages. The report is a pure function of the
   config: domain count never changes a byte. *)

type placement = Least_loaded | Round_robin

let placement_name = function
  | Least_loaded -> "least-loaded"
  | Round_robin -> "round-robin"

type policy =
  | Pack_power_cap
  | Edp_migrate
  | Work_steal
  | Balance of { placement : placement; migration : bool }

let policy_name = function
  | Pack_power_cap -> "pack-power-cap"
  | Edp_migrate -> "edp-migrate"
  | Work_steal -> "work-steal"
  | Balance { placement; _ } -> placement_name placement

let policy_of_name = function
  | "pack-power-cap" | "pack" -> Some Pack_power_cap
  | "edp-migrate" | "edp" -> Some Edp_migrate
  | "work-steal" | "steal" -> Some Work_steal
  | _ -> None

let all_policies = [ Pack_power_cap; Edp_migrate; Work_steal ]

type config = {
  topology : Machine.Topology.t;
  jobs : int;
  seed : int;
  mean_interarrival_s : float;
  epoch_s : float;  (** control-traffic batching epoch *)
  policy : policy;
  power_cap_w : float;
      (** [Pack_power_cap]: projected cluster power admission budget *)
  fail_rate : float;  (** per-phase failure probability *)
}

let default ~topology ~jobs ~seed =
  {
    topology;
    jobs;
    seed;
    (* Brisk enough at warehouse scale (256+ nodes) that load skews and
       the dynamic policies actually migrate/steal. *)
    mean_interarrival_s = 0.02;
    epoch_s = 0.25;
    policy = Edp_migrate;
    (* Roomy enough that packing shapes placement without starving
       admission: about half the fleet busy. *)
    power_cap_w =
      0.75 *. 110.0 *. float_of_int (Machine.Topology.nodes topology);
    fail_rate = 0.0;
  }

type result = {
  completed : int;
  failed : int;
  retried_phases : int;
  migrations : int;
  steals : int;
  deferred : int;  (** admissions blocked at least once by the power cap *)
  makespan : float;
  total_energy_j : float;
  energy_x86_j : float;
  energy_arm_j : float;
  edp : float;
  peak_power_w : float;  (** max projected cluster power at placement *)
  p50_latency_s : float;
  p99_latency_s : float;
  events : int;
  windows : int;
}

(* --- job mix: ISA affinity visible ------------------------------------- *)

let job_pool =
  let open Workload.Spec in
  [|
    (CG, A); (CG, B); (IS, A); (IS, B); (FT, A); (EP, A); (EP, B); (MG, A);
    (MG, B); (BT, A); (SP, A); (LU, A); (Bzip2smp, A); (Bzip2smp, B);
    (Verus, A); (Verus, B); (Verus, C); (Redis, A); (Redis, B);
  |]

let thread_counts = [| 1; 2; 4 |]

type job = {
  jid : int;
  arrival : float;
  threads : int;
  spec : Workload.Spec.t;
  n_phases : int;
  phase_instr : float;
}

(* Phase length: the instructions a thread runs between migration
   points. *)
let quantum_instructions = 1e8

let make_job rng jid arrival =
  let bench, cls = Sim.Prng.choice rng job_pool in
  let spec = Workload.Spec.spec bench cls in
  let threads = Sim.Prng.choice rng thread_counts in
  let per_thread =
    spec.Workload.Spec.total_instructions /. float_of_int threads
  in
  let n_phases =
    max 1 (int_of_float (Float.ceil (per_thread /. quantum_instructions)))
  in
  { jid; arrival; threads; spec; n_phases;
    phase_instr = per_thread /. float_of_int n_phases }

(* --- per-island state -------------------------------------------------- *)

type running = {
  job : job;
  mutable remaining : int;
  mutable cold : bool;  (** working set not yet resident: next phase faults *)
  mutable src_node : int;
      (** where a cold set streams from: -1 = the head's job store, else
          the node the job migrated away from *)
  mutable pending : (int * bool) option;
      (** (dst, is a theft): move there at the next phase boundary *)
  mutable phase_retries : int;  (** failures of the current phase *)
}

type node_state = {
  node_id : int;
  machine : Machine.Server.t;
  mutable busy : int;
  mutable energy_j : float;
  mutable last_update : float;
  mutable running : running list;
  mutable migrations_out : int;
  mutable steals_in : int;
  mutable retried : int;
}

type sched_state = {
  queue : job Queue.t;
  est_load : int array;
  cores : int array;
  mutable outstanding : int;
  mutable rr : int;
  mutable completions : (int * float) list;  (** (jid, latency), report order *)
  mutable failed : int;
  mutable deferred : int;
  mutable peak_power_w : float;
}

let utilization ns =
  Float.min 1.0
    (float_of_int ns.busy /. float_of_int ns.machine.Machine.Server.cores)

let settle ns ~now =
  let power =
    Machine.Power.system_power ns.machine.Machine.Server.power
      ~utilization:(utilization ns)
  in
  ns.energy_j <- ns.energy_j +. ((now -. ns.last_update) *. power);
  ns.last_update <- now

let adjust_busy ns ~now delta =
  settle ns ~now;
  ns.busy <- ns.busy + delta

(* Remote page fault served by the hDSM protocol: handler software on
   top of a round trip over the given path, as in `Dsm.Hdsm`. Warm
   misses hit the nearest replica (one local hop); cold working sets
   stream from wherever the job last lived, so fault cost is
   path-dependent. *)
let fault_handler_s = 50e-6

let fault_cost_over link =
  fault_handler_s
  +. Machine.Topology.page_transfer_time_link link ~page_bytes:Memsys.Page.size

(* Pages a phase touches; a cold (just-placed or just-migrated) working
   set faults on all of them. *)
let phase_pages = 16

let max_phase_retries = 3

(* Throughput-per-watt of a machine for a workload category at full
   tilt: the ISA-affinity score both energy-aware policies rank by. *)
let efficiency (m : Machine.Server.t) cat =
  Machine.Server.peak_mips m cat
  /. Machine.Power.system_power m.Machine.Server.power ~utilization:1.0

(* --- power-capped admission ---------------------------------------------- *)

(* Projected cluster power is the sum over nodes of each node's system
   power at its scheduler-estimated load. Summing it afresh for every
   candidate costs O(nodes) per candidate, O(nodes²) per placement; the
   admission rule instead sums once and scores each candidate in O(1)
   as [base − P_n(load_n) + P_n(load_n + extra)].

   That estimate is not bit-identical to the exact left-to-right sum.
   Both are recursive sums of at most N non-negative terms, each no
   larger than [sigma] (the cluster's full-tilt draw), so each lies
   within (N−1)·u·sigma of the real sum (u = ε/2 the unit roundoff), and
   the estimate's two extra operations add at most 2·u·sigma more:
   |estimate − exact| ≤ (N+1)·ε·sigma. [guard_w] doubles that bound. A
   candidate whose estimate clears the cap by more than [guard_w] in
   either direction is decided at once; one inside the band is
   re-checked with the exact sum, so every decision equals the exact
   [projected ≤ cap]. *)
module Admission = struct
  type t = {
    power : float array array;
        (* node -> load -> system W; loads at or above the core count
           all read full tilt, so a row has [cores + 1] entries *)
    guard_w : float;
  }

  let create topo =
    let n_nodes = Machine.Topology.nodes topo in
    let power =
      Array.init n_nodes (fun n ->
          let m = Machine.Topology.server topo n in
          let cores = m.Machine.Server.cores in
          Array.init (cores + 1) (fun load ->
              Machine.Power.system_power m.Machine.Server.power
                ~utilization:
                  (Float.min 1.0 (float_of_int load /. float_of_int cores))))
    in
    let sigma =
      Array.fold_left (fun acc row -> acc +. row.(Array.length row - 1)) 0.0
        power
    in
    { power; guard_w = 2.0 *. float_of_int (n_nodes + 1) *. epsilon_float *. sigma }

  let node_power t n load =
    let row = t.power.(n) in
    row.(min load (Array.length row - 1))

  (* The exact sum, in node order, with [extra] threads on node [on]. *)
  let projected t loads ~on ~extra =
    let total = ref 0.0 in
    for n = 0 to Array.length t.power - 1 do
      let load = loads.(n) + if n = on then extra else 0 in
      total := !total +. node_power t n load
    done;
    !total

  let admits t loads ~base ~cap ~on ~extra =
    let load = loads.(on) in
    let estimate =
      base -. node_power t on load +. node_power t on (load + extra)
    in
    if estimate < cap -. t.guard_w then true
    else if estimate > cap +. t.guard_w then false
    else projected t loads ~on ~extra <= cap

  let min_cap t ~extra =
    let idle = Array.make (Array.length t.power) 0 in
    let best = ref Float.infinity in
    for n = 0 to Array.length t.power - 1 do
      best := Float.min !best (projected t idle ~on:n ~extra)
    done;
    !best
end

let max_threads = Array.fold_left max 0 thread_counts

let min_power_cap topo =
  Admission.min_cap (Admission.create topo) ~extra:max_threads

(* --- the simulation ---------------------------------------------------- *)

let run_impl ?(domains = 1) ~capture cfg =
  let n_nodes = Machine.Topology.nodes cfg.topology in
  if n_nodes < 2 then invalid_arg "Cluster.run: need at least 2 nodes";
  if cfg.jobs < 1 then invalid_arg "Cluster.run: need at least 1 job";
  if not (Float.is_finite cfg.epoch_s) || cfg.epoch_s <= 0.0 then
    invalid_arg "Cluster.run: epoch must be positive";
  if not (Float.is_finite cfg.power_cap_w) || cfg.power_cap_w <= 0.0 then
    invalid_arg "Cluster.run: power cap must be positive";
  let topo = cfg.topology in
  let admission = Admission.create topo in
  (* Under a cap below this, the head job may never fit even on an
     idle cluster, and admission would block forever. *)
  (if cfg.policy = Pack_power_cap then
     let floor_w = Admission.min_cap admission ~extra:max_threads in
     if cfg.power_cap_w < floor_w then
       invalid_arg
         (Printf.sprintf
            "Cluster.run: power cap %gW is below the minimum admissible %gW"
            cfg.power_cap_w floor_w));
  (* Per-edge control delays: the batching epoch plus the path latency,
     to and from the head or between nodes. The same values form the
     runtime's lookahead matrix, so a post below its edge's floor is a
     runtime error. *)
  let ctrl_delay =
    Array.init n_nodes (fun i ->
        cfg.epoch_s
        +. (Machine.Topology.head_path topo ~dst:i).Machine.Topology.latency_s)
  in
  let node_delay i j =
    cfg.epoch_s
    +. (Machine.Topology.path topo ~src:i ~dst:j).Machine.Topology.latency_s
  in
  let edge_lookahead =
    Array.init (n_nodes + 1) (fun s ->
        Array.init (n_nodes + 1) (fun d ->
            if s = d then 0.0
            else if s = 0 then ctrl_delay.(d - 1)
            else if d = 0 then ctrl_delay.(s - 1)
            else node_delay (s - 1) (d - 1)))
  in
  let rt =
    Sim.Islands.create ~capture ~edge_lookahead ~islands:(n_nodes + 1)
      ~lookahead:cfg.epoch_s ~seed:cfg.seed ()
  in
  (* Ownership map for the island-race audit: scheduler island 0 owns
     resource 0; node island i+1 owns resource i+1. Guarded by the local
     immutable [capture] so plain runs pay nothing. *)
  let touch_sched isl =
    if capture then Sim.Islands.touch isl ~owner:0 ~resource:0 ~write:true
  in
  let touch_node isl ns =
    if capture then
      Sim.Islands.touch isl ~owner:(ns.node_id + 1) ~resource:(ns.node_id + 1)
        ~write:true
  in
  let nodes =
    Array.init n_nodes (fun i ->
        {
          node_id = i;
          machine = Machine.Topology.server topo i;
          busy = 0;
          energy_j = 0.0;
          last_update = 0.0;
          running = [];
          migrations_out = 0;
          steals_in = 0;
          retried = 0;
        })
  in
  let sched =
    {
      queue = Queue.create ();
      est_load = Array.make n_nodes 0;
      cores = Array.map (fun ns -> ns.machine.Machine.Server.cores) nodes;
      outstanding = cfg.jobs;
      rr = 0;
      completions = [];
      failed = 0;
      deferred = 0;
      peak_power_w = 0.0;
    }
  in
  let warm_fault_cost = fault_cost_over topo.Machine.Topology.local in
  let cold_fault_cost (r : running) ns =
    if r.src_node < 0 then
      fault_cost_over (Machine.Topology.head_path topo ~dst:ns.node_id)
    else
      fault_cost_over
        (Machine.Topology.path topo ~src:r.src_node ~dst:ns.node_id)
  in
  (* Job arrivals: drawn up-front from the run seed (independent of any
     island stream), Poisson-spaced. *)
  let arrivals =
    let rng = Sim.Prng.create cfg.seed in
    let t = ref 0.0 in
    Array.init cfg.jobs (fun jid ->
        let job = make_job rng jid !t in
        t := !t +. Sim.Prng.exponential rng ~mean:cfg.mean_interarrival_s;
        job)
  in

  (* --- node islands (island id = node_id + 1) -------------------------- *)
  let leave (r : running) ns ~now =
    adjust_busy ns ~now (-r.job.threads);
    ns.running <- List.filter (fun x -> x != r) ns.running
  in
  (* The job leaves its node for good; the head learns at the next epoch
     and then runs [report]. *)
  let retire (r : running) ns isl ~now report =
    leave r ns ~now;
    Sim.Islands.post isl ~dst:0 ~after:ctrl_delay.(ns.node_id) (fun isl ->
        touch_sched isl;
        sched.outstanding <- sched.outstanding - 1;
        sched.est_load.(ns.node_id) <-
          sched.est_load.(ns.node_id) - r.job.threads;
        report ())
  in
  let rec run_phase (r : running) ns isl =
    touch_node isl ns;
    let now = Sim.Islands.now isl in
    let m = ns.machine in
    let compute =
      Isa.Cost_model.seconds_for m.Machine.Server.cost
        r.job.spec.Workload.Spec.category ~instructions:r.job.phase_instr
    in
    let contention =
      Float.max 1.0
        (float_of_int ns.busy /. float_of_int m.Machine.Server.cores)
    in
    (* Phase-locality sampling from the island's private stream: a cold
       working set faults on every page of the phase window; a warm one
       occasionally takes a small burst of misses. *)
    let misses, miss_cost =
      if r.cold then (phase_pages, cold_fault_cost r ns)
      else begin
        let u = Sim.Prng.float (Sim.Islands.prng isl) 1.0 in
        ( (if u < 0.05 then 1 + Sim.Prng.int (Sim.Islands.prng isl) 4 else 0),
          warm_fault_cost )
      end
    in
    r.cold <- false;
    let duration =
      (compute *. contention) +. (float_of_int misses *. miss_cost)
    in
    Sim.Islands.schedule isl ~at:(now +. duration) (fun isl ->
        phase_done r ns isl)

  and phase_done (r : running) ns isl =
    touch_node isl ns;
    let now = Sim.Islands.now isl in
    (* Failure draw only when phases can fail: a zero-rate run draws the
       same PRNG stream as one with no failure machinery at all. *)
    if
      cfg.fail_rate > 0.0
      && Sim.Prng.float (Sim.Islands.prng isl) 1.0 < cfg.fail_rate
    then begin
      if r.phase_retries >= max_phase_retries then
        retire r ns isl ~now (fun () -> sched.failed <- sched.failed + 1)
      else begin
        r.phase_retries <- r.phase_retries + 1;
        ns.retried <- ns.retried + 1;
        run_phase r ns isl
      end
    end
    else begin
      r.phase_retries <- 0;
      r.remaining <- r.remaining - 1;
      if r.remaining = 0 then begin
        let latency = now -. r.job.arrival in
        retire r ns isl ~now (fun () ->
            sched.completions <- (r.job.jid, latency) :: sched.completions)
      end
      else
        match r.pending with
        | None -> run_phase r ns isl
        | Some (dst, steal) ->
          (* Stop-and-copy to the commanded node: the thread state
             transforms, then the working set crosses the rack fabric as
             one batched stream. *)
          r.pending <- None;
          leave r ns ~now;
          ns.migrations_out <- ns.migrations_out + 1;
          let transform = 300e-6 *. float_of_int r.job.threads in
          let pages =
            Memsys.Page.count ~bytes:r.job.spec.Workload.Spec.footprint_bytes
          in
          let xfer =
            Machine.Topology.batch_transfer_time topo ~src:ns.node_id ~dst
              ~pages ~page_bytes:Memsys.Page.size
          in
          let pause = transform +. xfer in
          r.cold <- true;
          r.src_node <- ns.node_id;
          Sim.Islands.post isl ~dst:(dst + 1)
            ~after:(Float.max (node_delay ns.node_id dst) pause)
            (fun isl -> job_land ~steal r isl);
          Sim.Islands.post isl ~dst:0 ~after:ctrl_delay.(ns.node_id)
            (fun isl ->
              touch_sched isl;
              sched.est_load.(ns.node_id) <-
                sched.est_load.(ns.node_id) - r.job.threads;
              sched.est_load.(dst) <- sched.est_load.(dst) + r.job.threads)
    end

  and job_land ~steal (r : running) isl =
    let ns = nodes.(Sim.Islands.id isl - 1) in
    touch_node isl ns;
    if steal then ns.steals_in <- ns.steals_in + 1;
    adjust_busy ns ~now:(Sim.Islands.now isl) r.job.threads;
    ns.running <- r :: ns.running;
    run_phase r ns isl

  and job_start (job : job) isl =
    job_land ~steal:false
      { job; remaining = job.n_phases; cold = true; src_node = -1;
        pending = None; phase_retries = 0 }
      isl

  and migrate_cmd ?(steal = false) ~dst isl =
    let ns = nodes.(Sim.Islands.id isl - 1) in
    touch_node isl ns;
    (* Smallest eligible job moves (cheapest working set); lowest jid
       breaks ties deterministically. *)
    let smaller r = function
      | None -> true
      | Some b ->
        r.job.threads < b.job.threads
        || (r.job.threads = b.job.threads && r.job.jid < b.job.jid)
    in
    match
      List.fold_left
        (fun acc r ->
          if Option.is_none r.pending && r.remaining > 1 && smaller r acc then
            Some r
          else acc)
        None ns.running
    with
    | Some r -> r.pending <- Some (dst, steal)
    | None -> ()
  in

  (* --- scheduler island (island 0) ------------------------------------- *)
  (* Admission: at most 2x oversubscription of a node's cores. *)
  let fits n threads = sched.est_load.(n) + threads <= 2 * sched.cores.(n) in
  let norm n =
    float_of_int sched.est_load.(n) /. float_of_int sched.cores.(n)
  in
  (* The node other than [except] with room for [threads] that runs
     [cat] most efficiently (throughput per watt), discounted by load —
     so a busy efficient node loses to an idle slightly-less-efficient
     one; -1 if none has room. *)
  let most_efficient ~except ~threads cat =
    let best = ref (-1) in
    let best_s = ref Float.neg_infinity in
    for n = 0 to n_nodes - 1 do
      if n <> except && fits n threads then begin
        let headroom =
          1.0
          -. (float_of_int sched.est_load.(n)
             /. float_of_int (2 * sched.cores.(n)))
        in
        let s = efficiency nodes.(n).machine cat *. headroom in
        if s > !best_s then begin
          best := n;
          best_s := s
        end
      end
    done;
    !best
  in
  let pick_node (job : job) =
    match cfg.policy with
    | Pack_power_cap ->
      (* Best-fit packing: the fullest node (highest utilization after
         placement) that still fits and keeps the projected cluster
         power, from the scheduler's load estimates, under the budget.
         Consolidation lets the rest of the fleet idle. *)
      let loads = sched.est_load in
      let base = Admission.projected admission loads ~on:(-1) ~extra:0 in
      let best = ref (-1) in
      let best_u = ref (-1.0) in
      let blocked = ref false in
      for n = 0 to n_nodes - 1 do
        if fits n job.threads then begin
          if
            Admission.admits admission loads ~base ~cap:cfg.power_cap_w ~on:n
              ~extra:job.threads
          then begin
            let u =
              float_of_int (sched.est_load.(n) + job.threads)
              /. float_of_int sched.cores.(n)
            in
            if u > !best_u then begin
              best := n;
              best_u := u
            end
          end
          else blocked := true
        end
      done;
      if !best < 0 && !blocked then sched.deferred <- sched.deferred + 1;
      if !best >= 0 then begin
        sched.peak_power_w <-
          Float.max sched.peak_power_w
            (Admission.projected admission loads ~on:!best
               ~extra:job.threads);
        Some !best
      end
      else None
    | Edp_migrate ->
      let n =
        most_efficient ~except:(-1) ~threads:job.threads
          job.spec.Workload.Spec.category
      in
      if n >= 0 then Some n else None
    | Balance { placement = Least_loaded; _ } ->
      let best = ref (-1) in
      let best_w = ref Float.infinity in
      for n = 0 to n_nodes - 1 do
        if fits n job.threads then begin
          let w =
            float_of_int (sched.est_load.(n) + job.threads)
            /. float_of_int sched.cores.(n)
          in
          if w < !best_w then begin
            best := n;
            best_w := w
          end
        end
      done;
      if !best >= 0 then Some !best else None
    | Work_steal | Balance { placement = Round_robin; _ } ->
      let found = ref None in
      let tries = ref 0 in
      while !found = None && !tries < n_nodes do
        let n = sched.rr mod n_nodes in
        sched.rr <- sched.rr + 1;
        if fits n job.threads then found := Some n;
        incr tries
      done;
      !found
  in
  (* The node whose per-core load estimate is [better] than every
     other's; the lowest index wins ties. *)
  let extreme (better : float -> float -> bool) =
    let x = ref 0 in
    for n = 1 to n_nodes - 1 do
      if better (norm n) (norm !x) then x := n
    done;
    !x
  in
  (* Command one migration from [hi] to [dst] when their load gap is
     wide enough; one per epoch lets the system settle between moves. *)
  let shed isl ~hi ~dst =
    if norm hi -. norm dst >= 0.75 && sched.est_load.(hi) >= 2 then
      Sim.Islands.post isl ~dst:(hi + 1) ~after:ctrl_delay.(hi)
        (migrate_cmd ~dst)
  in
  let rack_victim = Array.make (Machine.Topology.racks topo) (-1) in
  let rebalance isl =
    match cfg.policy with
    | Pack_power_cap (* the cap is enforced at admission *)
    | Balance { migration = false; _ } -> ()
    | Balance { migration = true; _ } ->
      shed isl ~hi:(extreme ( > )) ~dst:(extreme ( < ))
    | Edp_migrate ->
      (* Worst-placed load moves to the best other node with room,
         ranked by efficiency-weighted pressure. *)
      let hi = extreme ( > ) in
      let dst = most_efficient ~except:hi ~threads:1 Isa.Cost_model.Mixed in
      if dst >= 0 then shed isl ~hi ~dst
    | Work_steal ->
      (* Every idle node steals from the most-loaded victim, in-rack
         victims first: the aggregation hop makes remote theft dearer
         than local. One theft per thief per epoch. Victims carry the
         top load (at least 2); the lowest-index one breaks ties, in
         the thief's rack if any there carries it, else cluster-wide. *)
      let top = Array.fold_left max 1 sched.est_load in
      if top >= 2 then begin
        let first = ref (-1) in
        Array.fill rack_victim 0 (Array.length rack_victim) (-1);
        for n = n_nodes - 1 downto 0 do
          if sched.est_load.(n) = top then begin
            first := n;
            rack_victim.(Machine.Topology.rack topo n) <- n
          end
        done;
        for thief = 0 to n_nodes - 1 do
          if sched.est_load.(thief) = 0 then begin
            let in_rack = rack_victim.(Machine.Topology.rack topo thief) in
            let victim = if in_rack >= 0 then in_rack else !first in
            Sim.Islands.post isl ~dst:(victim + 1) ~after:ctrl_delay.(victim)
              (migrate_cmd ~steal:true ~dst:thief)
          end
        done
      end
  in
  let rec tick isl =
    touch_sched isl;
    (* Dispatch the epoch's batch in FIFO order; the head blocks when no
       node admits the next job. *)
    let dispatching = ref true in
    while !dispatching && not (Queue.is_empty sched.queue) do
      let job = Queue.peek sched.queue in
      match pick_node job with
      | None -> dispatching := false
      | Some n ->
        ignore (Queue.pop sched.queue);
        sched.est_load.(n) <- sched.est_load.(n) + job.threads;
        Sim.Islands.post isl ~dst:(n + 1) ~after:ctrl_delay.(n)
          (job_start job)
    done;
    rebalance isl;
    if sched.outstanding > 0 then
      Sim.Islands.schedule_in isl ~after:cfg.epoch_s tick
  in
  let sched_isl = Sim.Islands.island rt 0 in
  Array.iter
    (fun (job : job) ->
      Sim.Islands.schedule sched_isl ~at:job.arrival (fun isl ->
          touch_sched isl;
          Queue.push job sched.queue))
    arrivals;
  Sim.Islands.schedule sched_isl ~at:cfg.epoch_s tick;

  Sim.Islands.run ~domains rt;

  (* --- results (merged in canonical order) ----------------------------- *)
  let completions = List.rev sched.completions in
  let makespan =
    List.fold_left
      (fun acc (jid, lat) -> Float.max acc (arrivals.(jid).arrival +. lat))
      0.0 completions
  in
  (* Idle-settle every node out to the makespan so energy covers the same
     interval on every node, in node order. *)
  Array.iter
    (fun ns -> if ns.last_update < makespan then settle ns ~now:makespan)
    nodes;
  let energy_of arch =
    Array.fold_left
      (fun acc ns ->
        if ns.machine.Machine.Server.arch = arch then acc +. ns.energy_j
        else acc)
      0.0 nodes
  in
  let energy_x86 = energy_of Isa.Arch.X86_64 in
  let energy_arm = energy_of Isa.Arch.Arm64 in
  let total_energy = energy_x86 +. energy_arm in
  let latencies =
    let arr = Array.of_list (List.map snd completions) in
    Array.sort Float.compare arr;
    arr
  in
  let quant q =
    if Array.length latencies = 0 then 0.0 else Sim.Stats.quantile latencies q
  in
  {
    completed = List.length completions;
    failed = sched.failed;
    retried_phases = Array.fold_left (fun acc ns -> acc + ns.retried) 0 nodes;
    migrations =
      Array.fold_left (fun acc ns -> acc + ns.migrations_out) 0 nodes;
    steals = Array.fold_left (fun acc ns -> acc + ns.steals_in) 0 nodes;
    deferred = sched.deferred;
    makespan;
    total_energy_j = total_energy;
    energy_x86_j = energy_x86;
    energy_arm_j = energy_arm;
    edp = total_energy *. makespan;
    peak_power_w = sched.peak_power_w;
    p50_latency_s = quant 0.5;
    p99_latency_s = quant 0.99;
    events = Sim.Islands.events_executed rt;
    windows = Sim.Islands.windows rt;
  },
  rt

let run ?domains cfg = fst (run_impl ?domains ~capture:false cfg)

let run_audited ?domains cfg =
  let r, rt = run_impl ?domains ~capture:true cfg in
  match Sim.Islands.capture rt with
  | Some cap -> (r, cap)
  | None -> assert false

(* Byte-stable rendering: pure function of the deterministic simulation
   — no wall-clock, no domain count — so `--seq` and `--islands N`
   outputs diff clean. Each preset supplies its header, outcome counts
   and optional extra line; the rest is shared. *)
let render_report ~header ~counts ?(extra = "") topology r =
  let b = Buffer.create 512 in
  Buffer.add_string b header;
  Printf.bprintf b "topology: %s\n" (Machine.Topology.describe topology);
  Buffer.add_string b counts;
  Printf.bprintf b
    "makespan=%.6fs energy=%.3fkJ (x86 %.3fkJ arm64 %.3fkJ) edp=%.6ekJs\n"
    r.makespan
    (r.total_energy_j /. 1e3)
    (r.energy_x86_j /. 1e3)
    (r.energy_arm_j /. 1e3)
    (r.edp /. 1e3);
  Buffer.add_string b extra;
  Printf.bprintf b "latency p50=%.6fs p99=%.6fs\n" r.p50_latency_s
    r.p99_latency_s;
  Printf.bprintf b "events=%d windows=%d\n" r.events r.windows;
  Buffer.contents b

let render cfg r =
  render_report cfg.topology r
    ~header:
      (Printf.sprintf
         "cluster: policy=%s jobs=%d seed=%d epoch=%.3fs power-cap=%.0fW\n"
         (policy_name cfg.policy) cfg.jobs cfg.seed cfg.epoch_s
         cfg.power_cap_w)
    ~counts:
      (Printf.sprintf "completed=%d migrations=%d steals=%d deferred=%d\n"
         r.completed r.migrations r.steals r.deferred)
    ~extra:
      (if cfg.policy = Pack_power_cap then
         Printf.sprintf "peak-power=%.1fW cap=%.0fW\n" r.peak_power_w
           cfg.power_cap_w
       else "")
