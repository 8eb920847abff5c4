(* The four workloads. Each one builds its inputs from the benchmark seed,
   times only calls into the libraries' public functions, and checks
   every output it produces.

   Why these four: see NOTES.md. In short, [table1-cells] is many short
   simulated runs in small pool jobs, [scale-gossip] one huge sharded run
   per seed, [thm36-exact] the exact-knowledge path with no simulator at
   all, and [explore-dpor] the only user of the explorer layers. *)

type outcome = {
  units : int;  (** work units completed *)
  wall_s : float;  (** seconds of the work itself, checks excluded *)
  words : float;  (** the calling domain's minor words over the same work *)
  attempted : int;  (** checked operations *)
  failures : string list;  (** failed checks, described *)
  variant : int;  (** which of the workload's inputs the repeat ran *)
  fingerprint : string;
      (** must not depend on the domain count: repeats of one variant
          must agree *)
  latencies_ms : float list;  (** per-run latencies *)
}

type instance = {
  shape : Slots.shape;
  repeat : op:int -> domains:int -> outcome;
  layers : keep:(int -> bool) -> Span.t list -> (string * float) list;
      (** the traced run's per-layer metrics this workload owns, from the
          spans of the ops selected by [keep] and from its own probes *)
}

type t = {
  name : string;
  unit_name : string;
  owned : (string * string) list;  (** per-layer metrics and units *)
  setup : seed:int64 -> instance;
      (** build the inputs for [seed] and warm up at 1 domain (set-up must
          not spawn the pool: see [Udc_bench.untraced]) *)
}

let ms_since t0 = Measure.seconds_between t0 (Measure.now_ns ()) *. 1e3

(* A canonical fingerprint of a run's timed events: the histories'
   seeded-FNV timed hashes, folded in pid order. It depends on what the
   run is, not on how it is laid out in memory or digested. *)
let run_fingerprint r =
  let h = ref (Run.horizon r) in
  for p = 0 to Run.n r - 1 do
    h := Hashtbl.hash (!h, History.hash_timed_events (Run.history r p))
  done;
  !h

let check ok what failures = if ok then failures else what :: failures

(* ------------------------------------------------------------------ *)
(* table1-cells: Table-1 sufficiency cells at n=6, 20 seeds each.       *)

module Table1 = struct
  let n = 6
  let seeds_per_cell = 20

  (* Successive repeats run the grid on [variants] different seed sets,
     all derived from the benchmark seed. Run lengths are bimodal (about
     half go to the tick cap), so the latency median of one 100-run grid
     depends on the seed; over 800 runs it barely does. *)
  let variants = 8
  let variant_seed ~seed v = Int64.add (Int64.mul seed 16L) (Int64.of_int v)

  (* the shapes of the experiment harness's UDC and consensus configs *)
  let udc_config ~t ~loss ~oracle seed =
    let prng = Prng.create seed in
    let cfg = Sim.config ~n ~seed in
    {
      cfg with
      Sim.loss_rate = loss;
      oracle;
      fault_plan = Fault_plan.random prng ~n ~t ~max_tick:25;
      init_plan = Init_plan.staggered ~n ~actions_per_process:1 ~spacing:3;
      max_ticks = 4000;
    }

  let consensus_config ~t ~loss ~oracle seed =
    let cfg = udc_config ~t ~loss ~oracle seed in
    { cfg with Sim.init_plan = Init_plan.empty; goal = Sim.All_alive_decided }

  type cell = {
    label : string;
    config : int64 -> Sim.config;  (** a fresh oracle per seed *)
    protocol : (module Protocol.S);
    check : Run.t -> (unit, string) result;
  }

  let proposals = Array.init n (fun i -> (i * 3) mod 5)

  (* Every cell is one the paper says suffices: all 20 runs must satisfy
     the specification. *)
  let cells =
    [
      {
        label = "udc lossy t=2: ack-udc + perfect FD";
        config =
          (fun seed ->
            udc_config ~t:2 ~loss:0.3 ~oracle:(Detector.Oracles.perfect ()) seed);
        protocol = (module Core.Ack_udc.P);
        check = Core.Spec.udc;
      };
      {
        label = "udc reliable t=2: no FD";
        config = udc_config ~t:2 ~loss:0.0 ~oracle:Oracle.none;
        protocol = (module Core.Reliable_udc.P);
        check = Core.Spec.udc;
      };
      {
        label = "udc lossy t=2: majority, no FD";
        config = udc_config ~t:2 ~loss:0.3 ~oracle:Oracle.none;
        protocol = Core.Majority_udc.make ~t:2;
        check = Core.Spec.udc;
      };
      {
        label = "consensus lossy t=4: S-alg + strong FD";
        config =
          (fun seed ->
            consensus_config ~t:4 ~loss:0.3
              ~oracle:(Detector.Oracles.strong ~seed ())
              seed);
        protocol = Consensus.Chandra_toueg.make_s ~proposals;
        check = Consensus.Spec.consensus ~proposals;
      };
      {
        label = "consensus lossy t=2: DS-alg + eventually-perfect FD";
        config =
          (fun seed ->
            consensus_config ~t:2 ~loss:0.3
              ~oracle:
                (Detector.Oracles.eventually_perfect ~stabilize_at:80 ~seed ())
              seed);
        protocol = Consensus.Chandra_toueg.make_ds ~proposals;
        check = Consensus.Spec.consensus ~proposals;
      };
    ]

  let cell_seeds ~seed ~per_cell ci =
    List.init per_cell (fun i ->
        Int64.add
          (Int64.mul seed 1_000_003L)
          (Int64.of_int ((i * 104729) + (ci * 7919) + 31)))

  type run_result = {
    fp : int;
    process_ticks : int;
    error : string option;
    ms : float;
    words : float;  (** minor words of [Sim.execute]; traced runs only *)
  }

  let one_run ~parent cell seed =
    let t0 = Measure.now_ns () in
    let op = Int64.to_int seed in
    let cfg = cell.config seed in
    let make p = Protocol.make cell.protocol ~n ~me:p in
    let traced = Span.enabled () in
    let w0 = if traced then Measure.minor_words () else 0.0 in
    let res = Span.run ~parent ~op "sim.execute" (fun _ -> Sim.execute cfg make) in
    let words = if traced then Measure.minor_words () -. w0 else 0.0 in
    let verdict =
      Span.run ~parent ~op "spec.check" (fun _ -> cell.check res.Sim.run)
    in
    {
      fp = run_fingerprint res.Sim.run;
      process_ticks = n * Run.horizon res.Sim.run;
      error = (match verdict with Ok () -> None | Error e -> Some e);
      ms = ms_since t0;
      words;
    }

  let grid ~seed ~per_cell ~op ~domains =
    Span.run ~op "bench.grid" (fun gid ->
        List.mapi
          (fun ci cell ->
            let seeds = cell_seeds ~seed ~per_cell ci in
            ( cell,
              Span.run ~parent:gid ~op "ensemble.cell" (fun cid ->
                  Ensemble.run ~domains ~seeds (one_run ~parent:cid cell)) ))
          cells)

  let process_ticks results =
    List.fold_left
      (fun acc (_, rs) ->
        List.fold_left (fun acc r -> acc + r.process_ticks) acc rs)
      0 results

  (* Warm-up: one-seed grids until [warm_pt] process*ticks have been
     simulated. The grids' seeds are fixed, not drawn from the benchmark
     seed: one grid adds up to 1.2*10^5 process*ticks, so with seed-drawn
     grids the set-up work, and set-up time, varied up to 2x by seed. *)
  let warm_pt = 100_000

  let warm_up ~domains =
    let pt = ref 0 and k = ref 0 in
    while !pt < warm_pt do
      incr k;
      let seed = Int64.add 62_710_561L (Int64.of_int !k) in
      pt := !pt + process_ticks (grid ~seed ~per_cell:1 ~op:0 ~domains)
    done

  let setup ~seed =
    warm_up ~domains:1;
    let words = ref 0.0 and runs = ref 0 in
    let repeat ~op ~domains =
      let variant = op mod variants in
      let results, wall_s, words_all =
        Measure.work (fun () ->
            grid ~seed:(variant_seed ~seed variant) ~per_cell:seeds_per_cell
              ~op ~domains)
      in
      let all = List.concat_map snd results in
      if Span.enabled () && domains = 1 then begin
        List.iter (fun r -> words := !words +. r.words) all;
        runs := !runs + List.length all
      end;
      (* one failure per run outside its cell's specification *)
      let failures =
        List.concat_map
          (fun (cell, rs) ->
            List.filter_map
              (fun r ->
                Option.map (fun e -> Printf.sprintf "%s: %s" cell.label e) r.error)
              rs)
          results
      in
      {
        units = process_ticks results;
        wall_s;
        words = words_all;
        attempted = List.length all;
        failures;
        variant;
        fingerprint =
          String.concat ";"
            (List.map
               (fun (_, rs) ->
                 string_of_int
                   (List.fold_left (fun h r -> Hashtbl.hash (h, r.fp)) 0 rs))
               results);
        latencies_ms = List.map (fun r -> r.ms) all;
      }
    in
    let layers ~keep spans =
      [
        ("sim.execute_ms", 1e3 *. Span.mean_duration ~keep spans "sim.execute");
        ("spec.check_ms", 1e3 *. Span.mean_duration ~keep spans "spec.check");
        ("sim.words_per_run", !words /. float_of_int (max 1 !runs));
      ]
    in
    {
      shape = { Slots.n; loss = 0.3; hist_len = 128; process = Slots.ack_udc n };
      repeat;
      layers;
    }

  let workload =
    {
      name = "table1-cells";
      unit_name = "process*ticks";
      owned =
        [
          ("sim.execute_ms", "ms");
          ("spec.check_ms", "ms");
          ("sim.words_per_run", "words");
        ];
      setup;
    }
end

(* ------------------------------------------------------------------ *)
(* scale-gossip: one sharded estimate on the gossip ring at n=20k.      *)

module Scale_gossip = struct
  let n = 20_000
  let ticks = 30

  let params ~seed ~n =
    Scale.Estimate.params ~n ~shards:2 ~ticks ~runs:1 ~seed ~backend:"gossip" ()

  (* every field of the report except the wall clock and the domain count *)
  let summary (r : Scale.Estimate.report) =
    let open Scale.Estimate in
    let ci c = Printf.sprintf "%d/%d" c.successes c.trials in
    let dist = function
      | None -> "-"
      | Some d ->
          Printf.sprintf "%d:%h:%h:%h:%h" d.samples d.mean d.p50 d.p99 d.max
    in
    String.concat " "
      ([
         string_of_int r.monitored_pairs;
         ci r.completeness;
         ci r.strong_accuracy;
         ci r.weak_accuracy;
         ci r.ev_strong_accuracy;
         ci r.ev_weak_accuracy;
         ci r.cls_p;
         ci r.cls_s;
         ci r.cls_ev_p;
         ci r.cls_ev_s;
         dist r.detection_latency;
         dist r.false_per_run;
         Option.fold ~none:"-" ~some:ci r.udc_uniformity;
         Option.fold ~none:"-" ~some:ci r.udc_termination;
         string_of_int r.process_ticks;
         r.digest;
       ]
      @ List.map (fun (k, c) -> Printf.sprintf "S%d=%s" k (ci c)) r.cls_sk)

  (* the estimate's per-run detector ring, with the Ack-UDC committee *)
  let ring_pair (p : Scale.Estimate.params) =
    let mk =
      Option.get (Detector.Backends.of_ring_label p.Scale.Estimate.backend)
    in
    mk ~degree:p.Scale.Estimate.degree
      ~committee:(p.Scale.Estimate.committee, (module Core.Ack_udc.P : Protocol.S))
      ~n:p.Scale.Estimate.n ()

  let estimate p ~op ~domains =
    Span.run ~op "scale.estimate" (fun _ ->
        Scale.Estimate.estimate { p with Scale.Estimate.domains = Some domains })

  let setup ~seed =
    let warm = params ~seed ~n:2_000 in
    ignore (estimate warm ~op:0 ~domains:1);
    let p = params ~seed ~n in
    let est_s = ref 0.0 and est_words = ref 0.0 and est_pt = ref 0 in
    let repeat ~op ~domains =
      let r, wall_s, words = Measure.work (fun () -> estimate p ~op ~domains) in
      if Span.enabled () && domains = 1 then begin
        est_s := !est_s +. wall_s;
        est_words := !est_words +. words;
        est_pt := !est_pt + r.Scale.Estimate.process_ticks
      end;
      {
        units = r.Scale.Estimate.process_ticks;
        wall_s;
        words;
        attempted = 1;
        failures =
          check
            (r.Scale.Estimate.process_ticks = n * ticks)
            (Printf.sprintf "estimate covered %d process*ticks, expected %d"
               r.Scale.Estimate.process_ticks (n * ticks))
            [];
        variant = 0;
        fingerprint = summary r;
        latencies_ms = [ wall_s *. 1e3 ];
      }
    in
    (* The estimate's split: re-run its sharded execution and run digest
       on [Estimate.config] at one domain; scoring is what remains. *)
    let layers ~keep:_ _spans =
      let pair = ring_pair p in
      (* the estimate's one run uses seed + 13 (its seed list's first entry) *)
      let cfg =
        Scale.Estimate.config p ~seed:(Int64.add p.Scale.Estimate.seed 13L)
      in
      let cfg = { cfg with Sim.oracle = pair.Detector.Backends.oracle } in
      let w0 = Measure.minor_words () in
      let res, exec_s =
        Span.timed ~op:(-1) "shard.execute" (fun () ->
            Scale.Shard.execute ~shards:p.Scale.Estimate.shards ~domains:1 cfg
              pair.Detector.Backends.protocol)
      in
      let w1 = Measure.minor_words () in
      let _, digest_s =
        Span.timed ~op:(-1) "run.digest" (fun () -> Run.digest res.Sim.run)
      in
      let w2 = Measure.minor_words () in
      let pt = float_of_int (n * ticks) in
      let runs = float_of_int (max 1 (!est_pt / (n * ticks))) in
      let est_s = !est_s /. runs and est_words = !est_words /. runs in
      let exec_w = w1 -. w0 and digest_w = w2 -. w1 in
      [
        ("shard.execute_s", exec_s);
        ("run.digest_s", digest_s);
        ("estimate.score_s", est_s -. exec_s -. digest_s);
        ("shard.words_per_pt", exec_w /. pt);
        ("run.digest_words_per_pt", digest_w /. pt);
        ("estimate.score_words_per_pt", (est_words -. exec_w -. digest_w) /. pt);
      ]
    in
    (* at this shape a process is a ring member whose committee protocol
       is Ack-UDC, as in the estimate *)
    let process () =
      Protocol.on_init ((ring_pair p).Detector.Backends.protocol 0) Slots.alpha
    in
    { shape = { Slots.n; loss = 0.3; hist_len = ticks; process }; repeat; layers }

  let workload =
    {
      name = "scale-gossip";
      unit_name = "process*ticks";
      owned =
        [
          ("shard.execute_s", "s");
          ("run.digest_s", "s");
          ("estimate.score_s", "s");
          ("shard.words_per_pt", "words");
          ("run.digest_words_per_pt", "words");
          ("estimate.score_words_per_pt", "words");
        ];
      setup;
    }
end

(* ------------------------------------------------------------------ *)
(* thm36-exact: Theorem 3.6's f-construction on an enumerated system.   *)

module Thm36 = struct
  let n = 3
  let depth = 7

  (* The initiator is the seed's only input. Per initiator: runs, nodes,
     dedup hits and the canonical timed-event digest of the run set. *)
  let pinned =
    [|
      (3613, 1529, 25, "e4d445edff551913485b5b052422df67");
      (3613, 1529, 25, "35d22535d41de687f8114e083bd00141");
      (3612, 1529, 25, "80e1aa67c74c808f6853f45a615e8ab1");
    |]

  let config ~owner ~depth =
    {
      (Enumerate.config ~n ~depth) with
      Enumerate.max_crashes = 2;
      init_plan = Init_plan.one ~owner ~at:1;
      oracle_mode = Enumerate.Perfect_reports;
      max_nodes = 20_000_000;
    }

  let protocol = Core.Fip.make ~trust_reports:true (module Core.Ack_udc.P)

  (* Theorem 3.6's finite instance, as E8 checks it: the constructed
     detector is strongly accurate on every run, and strongly complete on
     every run whose coordination obligations were discharged. *)
  let check_f_run ~alpha r fr =
    let accurate = Result.is_ok (Detector.Spec.strong_accuracy fr) in
    let correct = Run.correct r in
    let discharged, complete =
      match
        List.find_map
          (fun (a, tick) -> if Action_id.equal a alpha then Some tick else None)
          (Run.initiated r)
      with
      | None -> (false, true)
      | Some it ->
          let early =
            Pid.Set.filter
              (fun q ->
                match Run.crash_tick r q with Some tc -> tc < it | None -> false)
              (Run.faulty r)
          in
          if
            Pid.Set.is_empty early || Pid.Set.is_empty correct
            || not (Pid.Set.for_all (fun p -> Run.did r p alpha) correct)
          then (false, true)
          else
            ( true,
              Pid.Set.for_all
                (fun q ->
                  Pid.Set.for_all
                    (fun p ->
                      Pid.Set.mem q
                        (Detector.Spec.suspects_at Detector.Spec.event_timeline
                           fr p (Run.horizon fr)))
                    correct)
                early )
    in
    (accurate, discharged, complete)

  type pass = {
    out : Enumerate.outcome;
    env : Epistemic.Checker.env;
    sys : Epistemic.System.t;
    accurate : int;
    discharged : int;
    complete : int;
  }

  let pass ~owner ~depth ~op ~domains =
    let alpha = Action_id.make ~owner ~tag:0 in
    Span.run ~op "bench.thm36" (fun root ->
        let out =
          Span.run ~parent:root ~op "enumerate.runs" (fun _ ->
              Enumerate.runs_exn ~domains (config ~owner ~depth) protocol)
        in
        let sys =
          Span.run ~parent:root ~op "system.of_runs" (fun _ ->
              Epistemic.System.of_runs out.Enumerate.runs)
        in
        let env =
          Span.run ~parent:root ~op "checker.make" (fun _ ->
              Epistemic.Checker.make sys)
        in
        let accurate = ref 0 and discharged = ref 0 and complete = ref 0 in
        for ri = 0 to Epistemic.System.run_count sys - 1 do
          let fr =
            Span.run ~parent:root ~op "simulate_fd.f_run" (fun _ ->
                Core.Simulate_fd.f_run env ~run:ri)
          in
          let a, d, c =
            Span.run ~parent:root ~op "detector.spec" (fun _ ->
                check_f_run ~alpha (Epistemic.System.run sys ri) fr)
          in
          if a then incr accurate;
          if d then incr discharged;
          if d && c then incr complete
        done;
        {
          out;
          env;
          sys;
          accurate = !accurate;
          discharged = !discharged;
          complete = !complete;
        })

  let setup ~seed =
    let owner = Int64.to_int (Int64.unsigned_rem seed 3L) in
    ignore (pass ~owner ~depth:(depth - 2) ~op:0 ~domains:1);
    let last = ref None in
    let repeat ~op ~domains =
      let r, wall_s, words =
        Measure.work (fun () -> pass ~owner ~depth ~op ~domains)
      in
      (* kept for the traced run's layer probes only: holding a pass while
         the next one is built would double the untraced peak RSS *)
      if Span.enabled () then last := Some r;
      let runs = Epistemic.System.run_count r.sys in
      let st = r.out.Enumerate.stats in
      let digest = Enumerate.digest r.out.Enumerate.runs in
      let got = (runs, st.Enumerate.nodes, st.Enumerate.dedup_hits, digest) in
      let failures =
        []
        |> check (r.accurate = runs)
             (Printf.sprintf "f-construction strongly accurate on %d/%d runs"
                r.accurate runs)
        |> check (r.complete = r.discharged)
             (Printf.sprintf "f-construction complete on %d/%d discharged runs"
                r.complete r.discharged)
        |> check (got = pinned.(owner))
             (let pr, pn, ph, pd = pinned.(owner) in
              Printf.sprintf
                "initiator %d: %d runs, %d nodes, %d hits, digest %s; pinned \
                 %d, %d, %d, %s"
                owner runs st.Enumerate.nodes st.Enumerate.dedup_hits digest pr
                pn ph pd)
      in
      {
        units = Epistemic.System.point_count r.sys;
        wall_s;
        words;
        attempted = runs + r.discharged + 1;
        failures;
        variant = 0;
        fingerprint = digest;
        latencies_ms = [ wall_s *. 1e3 ];
      }
    in
    let layers ~keep spans =
      match !last with
      | None -> []
      | Some r ->
          let st = r.out.Enumerate.stats in
          (* warm knowledge queries: the memo tables are already filled *)
          let sys = r.sys in
          let queries = ref 0 in
          let _, query_s =
            Span.timed ~op:(-1) "checker.query" (fun () ->
                let runs = Epistemic.System.run_count sys in
                let ri = ref 0 in
                while !ri < runs do
                  for tick = 0 to Epistemic.System.horizon sys !ri do
                    for p = 0 to n - 1 do
                      ignore
                        (Epistemic.Checker.knows_crashed r.env p ~run:!ri ~tick);
                      incr queries
                    done
                  done;
                  ri := !ri + 61
                done)
          in
          let mean name = Span.mean_duration ~keep spans name in
          [
            ("enumerate.runs_s", mean "enumerate.runs");
            ("enumerate.nodes", float_of_int st.Enumerate.nodes);
            ( "enumerate.dedup_hit_rate",
              float_of_int st.Enumerate.dedup_hits
              /. float_of_int (max 1 (st.Enumerate.nodes + st.Enumerate.dedup_hits))
            );
            ("system.of_runs_s", mean "system.of_runs");
            ("checker.make_s", mean "checker.make");
            ("checker.query_us", query_s *. 1e6 /. float_of_int (max 1 !queries));
            ( "checker.memo_entries",
              float_of_int (Epistemic.Checker.memo_entries r.env) );
            ("simulate_fd.f_run_ms", 1e3 *. mean "simulate_fd.f_run");
          ]
    in
    {
      shape = { Slots.n; loss = 0.0; hist_len = depth; process = Slots.ack_udc n };
      repeat;
      layers;
    }

  let workload =
    {
      name = "thm36-exact";
      unit_name = "points";
      owned =
        [
          ("enumerate.runs_s", "s");
          ("enumerate.nodes", "count");
          ("enumerate.dedup_hit_rate", "share");
          ("system.of_runs_s", "s");
          ("checker.make_s", "s");
          ("checker.query_us", "us");
          ("checker.memo_entries", "count");
          ("simulate_fd.f_run_ms", "ms");
        ];
      setup;
    }
end

(* ------------------------------------------------------------------ *)
(* explore-dpor: exhaust the P9 heartbeat/DC3 problem in dpor mode.     *)

module Explore_dpor = struct
  let n = 4

  (* The initiator is the seed's only input. Per initiator: explored,
     states, distinct, seen hits, pruned. *)
  let pinned = [| (3510, 842127, 3388, 122, 2045); (3571, 883292, 3450, 121, 2122) |]

  let problem ~owner =
    let config =
      {
        (Sim.config ~n ~seed:11L) with
        Sim.init_plan = Init_plan.one ~owner ~at:1;
        max_ticks = 60;
        crash_budget = 2;
      }
    in
    let protocol =
      match Explore.Protocols.instantiate "heartbeat" ~n with
      | Ok p -> p
      | Error e -> failwith e
    in
    Explore.Problem.make ~name:"heartbeat-dc3" ~config ~protocol
      ~protocol_label:"heartbeat" Explore.Property.Dc3

  let options ~max_runs ~domains =
    {
      Explore.Engine.default_options with
      Explore.Engine.mode = Explore.Engine.Dpor;
      depth = 2;
      max_runs;
      crash_points = 1_000;
      pick_points = 1_000;
      domains = Some domains;
      mutants = 16;
    }

  let search problem ~max_runs ~op ~domains =
    Span.run ~op "engine.search" (fun _ ->
        Explore.Engine.search ~options:(options ~max_runs ~domains) problem)

  let setup ~seed =
    let owner = Int64.to_int (Int64.unsigned_rem seed 2L) in
    let problem = problem ~owner in
    (* warm-up: the first 600 runs of the same search *)
    ignore (search problem ~max_runs:600 ~op:0 ~domains:1);
    let last = ref None in
    let repeat ~op ~domains =
      let (outcome, st), wall_s, words =
        Measure.work (fun () -> search problem ~max_runs:120_000 ~op ~domains)
      in
      last := Some st;
      let open Explore.Engine in
      let got = (st.explored, st.states, st.distinct, st.seen_hits, st.pruned) in
      let failures =
        []
        |> check
             (match outcome with Exhausted _ -> true | _ -> false)
             (match outcome with
             | Violation (w, _) -> "DC3 violated: " ^ w.violation
             | _ -> "search ran out of budget before the move space")
        |> check (got = pinned.(owner))
             (let e, s, d, h, p = pinned.(owner) in
              Printf.sprintf
                "initiator %d: explored/states/distinct/hits/pruned \
                 %d/%d/%d/%d/%d; pinned %d/%d/%d/%d/%d"
                owner st.explored st.states st.distinct st.seen_hits st.pruned
                e s d h p)
      in
      {
        units = st.states;
        wall_s;
        words;
        attempted = 2;
        failures;
        variant = 0;
        fingerprint =
          Printf.sprintf "%d/%d/%d/%d/%d" st.explored st.states st.distinct
            st.seen_hits st.pruned;
        latencies_ms = [ wall_s *. 1e3 ];
      }
    in
    (* Per-call samples on the workload's own problem: the root schedule
       and every single-link silence. *)
    let layers ~keep:_ _spans =
      let plans =
        [] :: List.concat_map
                (fun s ->
                  List.filter_map
                    (fun d -> if s = d then None else Some [ (s, d) ])
                    (List.init n Fun.id))
                (List.init n Fun.id)
      in
      let rounds = 8 in
      let runs = ref [] and calls = ref 0 in
      let run_s = ref 0.0 and hb_s = ref 0.0 in
      for round = 1 to rounds do
        List.iter
          (fun silence ->
            let (res, src), s =
              Span.timed ~op:(-1) "problem.run" (fun () ->
                  Explore.Problem.run problem ~plan:[] ~silence)
            in
            run_s := !run_s +. s;
            let _, s =
              Span.timed ~op:(-1) "hb.of_journal" (fun () ->
                  Explore.Hb.of_journal (Decision.journal src))
            in
            hb_s := !hb_s +. s;
            calls := !calls + 1;
            if round = 1 then runs := res.Sim.run :: !runs)
          plans
      done;
      let seen_s = ref 0.0 in
      for _ = 1 to rounds do
        let seen = Explore.Seen.create () in
        List.iter
          (fun r ->
            let _, s =
              Span.timed ~op:(-1) "seen.check_add" (fun () ->
                  Explore.Seen.check_add seen r)
            in
            seen_s := !seen_s +. s)
          !runs
      done;
      let us total k = total *. 1e6 /. float_of_int (max 1 k) in
      match !last with
      | None -> []
      | Some st ->
          let open Explore.Engine in
          [
            ("engine.explored", float_of_int st.explored);
            ("engine.states", float_of_int st.states);
            ( "engine.distinct_share",
              float_of_int st.distinct /. float_of_int (max 1 st.explored) );
            ("engine.seen_hits", float_of_int st.seen_hits);
            ("engine.pruned", float_of_int st.pruned);
            ("problem.run_us", us !run_s !calls);
            ("hb.of_journal_us", us !hb_s !calls);
            ("seen.check_add_us", us !seen_s (rounds * List.length !runs));
          ]
    in
    {
      shape = { Slots.n; loss = 0.0; hist_len = 60; process = Slots.ack_udc n };
      repeat;
      layers;
    }

  let workload =
    {
      name = "explore-dpor";
      unit_name = "states";
      owned =
        [
          ("engine.explored", "count");
          ("engine.states", "count");
          ("engine.distinct_share", "share");
          ("engine.seen_hits", "count");
          ("engine.pruned", "count");
          ("problem.run_us", "us");
          ("hb.of_journal_us", "us");
          ("seen.check_add_us", "us");
        ];
      setup;
    }
end

let all =
  [
    Table1.workload;
    Scale_gossip.workload;
    Thm36.workload;
    Explore_dpor.workload;
  ]
