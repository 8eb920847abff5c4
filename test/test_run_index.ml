(* Run_index vs the naive scans it replaces: on random simulated runs,
   every indexed answer must agree with a direct walk over the raw
   [History.timed_events] lists. *)

let timed run p = History.timed_events (Run.history run p)

(* -- naive reference implementations ------------------------------------ *)

let naive_first_send run ~src ~dst msg =
  List.find_map
    (fun (e, t) ->
      match e with
      | Event.Send { dst = d; msg = m }
        when Pid.equal d dst && Message.equal m msg ->
          Some t
      | _ -> None)
    (timed run src)

let naive_first_recv run ~dst ~src msg =
  List.find_map
    (fun (e, t) ->
      match e with
      | Event.Recv { src = s; msg = m }
        when Pid.equal s src && Message.equal m msg ->
          Some t
      | _ -> None)
    (timed run dst)

let naive_crash_tick run p =
  List.find_map
    (fun (e, t) -> if Event.is_crash e then Some t else None)
    (timed run p)

let naive_first_do run p alpha =
  List.find_map
    (fun (e, t) ->
      match e with
      | Event.Do a when Action_id.equal a alpha -> Some t
      | _ -> None)
    (timed run p)

let naive_first_init run alpha =
  List.find_map
    (fun (e, t) ->
      match e with
      | Event.Init a when Action_id.equal a alpha -> Some t
      | _ -> None)
    (timed run (Action_id.owner alpha))

let naive_all_actions run =
  Action_id.Set.elements
    (List.fold_left
       (fun acc p ->
         List.fold_left
           (fun acc (e, _) ->
             match e with
             | Event.Do a | Event.Init a -> Action_id.Set.add a acc
             | _ -> acc)
           acc (timed run p))
       Action_id.Set.empty
       (Pid.all (Run.n run)))

let naive_performers run alpha =
  List.filter (fun p -> Run.did run p alpha) (Pid.all (Run.n run))

let naive_decision run p =
  List.find_map
    (fun (e, _) ->
      match e with Event.Do a -> Some (Action_id.tag a) | _ -> None)
    (timed run p)

(* the raw detector timeline read at tick [m]: last non-[Gen] report *)
let naive_suspects_at run p m =
  List.fold_left
    (fun acc (e, t) ->
      match e with
      | Event.Suspect (Report.Gen _) -> acc
      | Event.Suspect r when t <= m ->
          Some (Report.suspects_in ~n:(Run.n run) r)
      | _ -> acc)
    None (timed run p)
  |> Option.value ~default:Pid.Set.empty

(* the checker's Suspects primitive: every report counts *)
let naive_all_suspects_at run p m =
  List.fold_left
    (fun acc (e, t) ->
      match e with
      | Event.Suspect r when t <= m ->
          Some (Report.suspects_in ~n:(Run.n run) r)
      | _ -> acc)
    None (timed run p)
  |> Option.value ~default:Pid.Set.empty

(* Prop 2.1's derived timeline: own standard reports plus suspicions heard
   in Gossip messages, accumulated; a change point whenever it grows *)
let naive_gossip_suspicions run p =
  let _, changes =
    List.fold_left
      (fun (cur, acc) (e, t) ->
        match e with
        | Event.Recv { msg = Message.Gossip s; _ }
        | Event.Suspect (Report.Std s) ->
            let cur' = Pid.Set.union cur s in
            if Pid.Set.equal cur' cur then (cur, acc)
            else (cur', (t, cur') :: acc)
        | _ -> (cur, acc))
      (Pid.Set.empty, []) (timed run p)
  in
  List.rev changes

let check_gossip run p changes =
  let show = List.map (fun (t, s) -> (t, Pid.Set.elements s)) in
  Alcotest.(check (list (pair int (list int))))
    (Printf.sprintf "gossip_suspicions p%d" p)
    (show (naive_gossip_suspicions run p))
    (show (Array.to_list changes))

let naive_counts run =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun (s, r, d, i, c, su) (e, _) ->
          match e with
          | Event.Send _ -> (s + 1, r, d, i, c, su)
          | Event.Recv _ -> (s, r + 1, d, i, c, su)
          | Event.Do _ -> (s, r, d + 1, i, c, su)
          | Event.Init _ -> (s, r, d, i + 1, c, su)
          | Event.Crash -> (s, r, d, i, c + 1, su)
          | Event.Suspect _ -> (s, r, d, i, c, su + 1))
        acc (timed run p))
    (0, 0, 0, 0, 0, 0)
    (Pid.all (Run.n run))

(* -- one full cross-check of a run -------------------------------------- *)

let opt_int = Alcotest.(option int)

let cross_check run =
  let idx = Run_index.of_run run in
  let n = Run.n run in
  let pids = Pid.all n in
  List.iter
    (fun p ->
      (* the event arrays are exactly the raw lists *)
      Alcotest.(check int)
        (Printf.sprintf "events length p%d" p)
        (List.length (timed run p))
        (Array.length (Run_index.events idx p));
      List.iteri
        (fun i (e, t) ->
          let e', t' = (Run_index.events idx p).(i) in
          Alcotest.(check bool) "event" true (Event.equal e e');
          Alcotest.(check int) "tick" t t')
        (timed run p);
      Alcotest.check opt_int
        (Printf.sprintf "crash_tick p%d" p)
        (naive_crash_tick run p)
        (Run_index.crash_tick idx p);
      Alcotest.check opt_int
        (Printf.sprintf "decision p%d" p)
        (naive_decision run p) (Run_index.decision idx p);
      (* every send/recv that occurred is found at its first tick *)
      List.iter
        (fun (e, _) ->
          match e with
          | Event.Send { dst; msg } ->
              Alcotest.check opt_int "first_send"
                (naive_first_send run ~src:p ~dst msg)
                (Run_index.first_send idx ~src:p ~dst msg)
          | Event.Recv { src; msg } ->
              Alcotest.check opt_int "first_recv"
                (naive_first_recv run ~dst:p ~src msg)
                (Run_index.first_recv idx ~dst:p ~src msg)
          | _ -> ())
        (timed run p);
      (* suspicion timelines, at every tick of the run *)
      for m = 0 to Run.horizon run do
        Alcotest.(check bool)
          (Printf.sprintf "suspects_at p%d m%d" p m)
          true
          (Pid.Set.equal
             (naive_suspects_at run p m)
             (Run_index.suspects_at (Run_index.suspicions idx p) m));
        Alcotest.(check bool)
          (Printf.sprintf "all_suspects_at p%d m%d" p m)
          true
          (Pid.Set.equal
             (naive_all_suspects_at run p m)
             (Run_index.suspects_at (Run_index.all_suspicions idx p) m))
      done;
      check_gossip run p (Run_index.gossip_suspicions idx p))
    pids;
  (* the action inventory *)
  let actions = naive_all_actions run in
  Alcotest.(check (list string))
    "all_actions"
    (List.map Action_id.to_string actions)
    (List.map Action_id.to_string (Run_index.all_actions idx));
  List.iter
    (fun alpha ->
      Alcotest.check opt_int "first_init" (naive_first_init run alpha)
        (Run_index.first_init idx alpha);
      Alcotest.(check (list int))
        "performers"
        (naive_performers run alpha)
        (Run_index.performers idx alpha);
      List.iter
        (fun p ->
          Alcotest.check opt_int "first_do" (naive_first_do run p alpha)
            (Run_index.first_do idx p alpha))
        pids)
    actions;
  List.iter2
    (fun (a, t) (a', t') ->
      Alcotest.(check bool) "initiated action" true (Action_id.equal a a');
      Alcotest.(check int) "initiated tick" t t')
    (Run.initiated run)
    (Run_index.initiated idx);
  (* counts *)
  let s, r, d, i, c, su = naive_counts run in
  let cs = Run_index.counts idx in
  Alcotest.(check (list int))
    "counts" [ s; r; d; i; c; su ]
    [
      cs.Run_index.sends;
      cs.Run_index.recvs;
      cs.Run_index.dos;
      cs.Run_index.inits;
      cs.Run_index.crashes;
      cs.Run_index.suspects;
    ]

(* -- random runs --------------------------------------------------------- *)

(* A run from a random workload: size, faults, loss, oracle and protocol
   all drawn from the seed (shared generators in {!Helpers}). *)
let random_run seed =
  Helpers.random_run ~max_ticks:600 (Int64.of_int ((seed * 7919) + 3))

let qcheck_index_agrees =
  QCheck.Test.make ~count:25 ~name:"index agrees with naive timed_events scan"
    QCheck.(map (fun i -> abs i) small_int)
    (fun seed ->
      cross_check (random_run seed);
      true)

let test_memoized () =
  let run = random_run 5 in
  Alcotest.(check bool)
    "same physical index" true
    (Run_index.of_run run == Run_index.of_run run)

(* -- message keys ---------------------------------------------------------- *)

(* One set of each payload type from the same elements, inserted in the
   order given. *)
let pid_set xs = List.fold_left (fun s x -> Pid.Set.add x s) Pid.Set.empty xs

let fact_of x =
  match x mod 3 with
  | 0 -> Fact.Crashed x
  | 1 -> Fact.Did (x, Action_id.make ~owner:(x / 3) ~tag:x)
  | _ -> Fact.Inited (Action_id.make ~owner:x ~tag:(x / 3))

let fact_set xs =
  List.fold_left (fun s x -> Fact.Set.add (fact_of x) s) Fact.Set.empty xs

(* the counter vector as a protocol keeps it: a map, listed in pid order *)
let counters xs =
  Pid.Map.bindings
    (List.fold_left (fun m x -> Pid.Map.add x (x * 7) m) Pid.Map.empty xs)

let set_messages xs =
  let alpha = Action_id.make ~owner:0 ~tag:1 in
  [
    Message.Gossip (pid_set xs);
    Message.Coord_request (alpha, fact_set xs);
    Message.Coord_ack (alpha, fact_set xs);
    Message.Gossip_counters (counters xs);
  ]

let qcheck_hash_canonical =
  QCheck.Test.make ~count:200
    ~name:"Message.equal implies equal Message.hash across insertion orders"
    QCheck.(list_of_size Gen.(1 -- 24) (int_bound 40))
    (fun xs ->
      let orders = [ List.rev xs; List.sort compare xs ] in
      let base = set_messages xs in
      List.for_all
        (fun order ->
          List.for_all2
            (fun m m' ->
              (* every pair here is equal, so the implication is tested *)
              Message.equal m m' && Message.hash m = Message.hash m')
            base (set_messages order))
        orders)

(* A run whose messages carry sets built in ascending order; the queries
   rebuild the same sets in descending order, which gives a different
   tree shape. *)
let test_lookup_by_value () =
  let asc = List.init 9 Fun.id in
  let desc = List.rev asc in
  Alcotest.(check bool)
    "the two sets differ in shape" false
    (pid_set asc = pid_set desc);
  let alpha = Action_id.make ~owner:0 ~tag:1 in
  let msgs xs =
    [ Message.Gossip (pid_set xs); Message.Coord_request (alpha, fact_set xs) ]
  in
  let history event tick0 =
    List.mapi (fun i msg -> (event msg, (2 * i) + tick0)) (msgs asc)
    |> List.fold_left
         (fun h (e, tick) -> History.append h e ~tick)
         History.empty
  in
  let h0 = history (fun msg -> Event.Send { dst = 1; msg }) 1 in
  let h1 = history (fun msg -> Event.Recv { src = 0; msg }) 2 in
  let run = Run.make ~n:2 ~horizon:6 [| h0; h1 |] in
  let idx = Run_index.of_run run in
  List.iteri
    (fun i msg ->
      Alcotest.check opt_int "naive first_send"
        (Some ((2 * i) + 1))
        (naive_first_send run ~src:0 ~dst:1 msg);
      Alcotest.check opt_int "first_send"
        (naive_first_send run ~src:0 ~dst:1 msg)
        (Run_index.first_send idx ~src:0 ~dst:1 msg);
      Alcotest.check opt_int "first_recv"
        (naive_first_recv run ~dst:1 ~src:0 msg)
        (Run_index.first_recv idx ~dst:1 ~src:0 msg))
    (msgs desc)

(* -- on-demand sections across domains ------------------------------------- *)

(* A weak detector strengthened by gossip, with crashes and loss: the run
   has sends, receives and a non-trivial gossip timeline. *)
let gossip_run seed =
  let module G = Detector.Convert.With_gossip (Core.Nudc.P) in
  (Sim.execute_uniform
     (Helpers.config ~n:5 ~loss:0.3 ~oracle:(Detector.Oracles.weak ())
        ~faults:(Fault_plan.crash_at [ (1, 8); (3, 14) ])
        ~max_ticks:400 ~seed ())
     (module G))
    .Sim.run

type answers = {
  a_events : (Event.t * int) array list;
  a_sends : int option list;
  a_recvs : int option list;
  a_gossip : (int * Pid.Set.t) array list;
}

(* [f p e] over every event [e] of every process [p], read off the raw
   histories, keeping the [Some] answers in order *)
let over_events run f =
  List.concat_map
    (fun p -> List.filter_map (fun (e, _) -> f p e) (timed run p))
    (Pid.all (Run.n run))

(* Force every on-demand section of [idx], in the given order, and read
   back every answer. The messages to look up come from the raw histories,
   so the lookups do not force [events] first. *)
let force_sections idx order =
  let run = Run_index.run idx in
  let pids = Pid.all (Run.n run) in
  let events = lazy (List.map (Run_index.events idx) pids) in
  let sends =
    lazy
      (over_events run (fun p -> function
         | Event.Send { dst; msg } ->
             Some (Run_index.first_send idx ~src:p ~dst msg)
         | _ -> None))
  in
  let recvs =
    lazy
      (over_events run (fun p -> function
         | Event.Recv { src; msg } ->
             Some (Run_index.first_recv idx ~dst:p ~src msg)
         | _ -> None))
  in
  let gossip = lazy (List.map (Run_index.gossip_suspicions idx) pids) in
  List.iter
    (function
      | `Events -> ignore (Lazy.force events)
      | `Sends -> ignore (Lazy.force sends)
      | `Recvs -> ignore (Lazy.force recvs)
      | `Gossip -> ignore (Lazy.force gossip))
    order;
  {
    a_events = Lazy.force events;
    a_sends = Lazy.force sends;
    a_recvs = Lazy.force recvs;
    a_gossip = Lazy.force gossip;
  }

let check_against_naive run ans =
  let pids = Pid.all (Run.n run) in
  List.iter2
    (fun p evs ->
      Alcotest.(check bool)
        (Printf.sprintf "events p%d" p)
        true
        (List.equal
           (fun (e, t) (e', t') -> Event.equal e e' && t = t')
           (timed run p) (Array.to_list evs)))
    pids ans.a_events;
  Alcotest.(check (list opt_int))
    "first_send"
    (over_events run (fun p -> function
       | Event.Send { dst; msg } -> Some (naive_first_send run ~src:p ~dst msg)
       | _ -> None))
    ans.a_sends;
  Alcotest.(check (list opt_int))
    "first_recv"
    (over_events run (fun p -> function
       | Event.Recv { src; msg } -> Some (naive_first_recv run ~dst:p ~src msg)
       | _ -> None))
    ans.a_recvs;
  List.iter2 (check_gossip run) pids ans.a_gossip

(* Two domains force the sections of one fresh index at the same moment;
   the second run forces them in reverse order, so no section relies on
   another having been built first. *)
let test_sections_concurrent () =
  List.iter
    (fun (seed, order) ->
      let run = gossip_run seed in
      let idx = Run_index.of_run run in
      let ready = Atomic.make 0 in
      let worker () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        force_sections idx order
      in
      let d = Domain.spawn worker in
      let mine = worker () in
      let theirs = Domain.join d in
      Alcotest.(check bool)
        "the run gossips" true
        (List.exists (fun c -> Array.length c > 0) mine.a_gossip);
      check_against_naive run mine;
      check_against_naive run theirs)
    [
      (11L, [ `Events; `Sends; `Recvs; `Gossip ]);
      (12L, [ `Gossip; `Recvs; `Sends; `Events ]);
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_index_agrees;
    Alcotest.test_case "index memoized per run" `Quick test_memoized;
    QCheck_alcotest.to_alcotest qcheck_hash_canonical;
    Alcotest.test_case "first_send/first_recv look messages up by value"
      `Quick test_lookup_by_value;
    Alcotest.test_case "on-demand sections forced from two domains" `Quick
      test_sections_concurrent;
  ]
