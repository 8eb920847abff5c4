(* The knowledge machinery: indistinguishability, S5 validities, and the
   interaction between message receipt and knowledge — the paper's core
   analytical toolkit (Section 2.3). *)

open Epistemic

let alpha0 = Action_id.make ~owner:0 ~tag:0

(* A small exhaustively-enumerated system: nUDC flood on 3 processes, one
   possible crash, perfect report points. *)
let enumerate_flood ~max_crashes =
  lazy
    (let cfg = Enumerate.config ~n:3 ~depth:7 in
     let cfg =
       {
         cfg with
         Enumerate.max_crashes;
         init_plan = Init_plan.one ~owner:0 ~at:1;
         oracle_mode = Enumerate.Perfect_reports;
       }
     in
     let out = Enumerate.runs cfg (module Core.Nudc.P) in
     Alcotest.(check bool) "exhaustive" true out.Enumerate.exhaustive;
     let sys = System.of_runs out.Enumerate.runs in
     Checker.make sys)

let enumerated = enumerate_flood ~max_crashes:1

(* The same flood with up to two crashes: a process can know of two, so
   report sets of two elements test tree shapes. *)
let two_crashes = enumerate_flood ~max_crashes:2

let check_valid env what f =
  match Checker.counterexample env f with
  | None -> ()
  | Some (r, m) ->
      Alcotest.failf "%s: fails at (run %d, tick %d): %s" what r m
        (Formula.to_string f)

let pids = [ 0; 1; 2 ]

(* Knowledge is truthful: K_p phi => phi (axiom T). *)
let axiom_truth () =
  let env = Lazy.force enumerated in
  List.iter
    (fun p ->
      List.iter
        (fun f ->
          check_valid env "T" Formula.(knows p f ==> f))
        [
          Formula.inited alpha0;
          Formula.crashed 1;
          Formula.did 2 alpha0;
          Formula.(inited alpha0 &&& neg (crashed 1));
        ])
    pids

(* Positive introspection: K_p phi => K_p K_p phi (axiom 4). *)
let axiom_positive_introspection () =
  let env = Lazy.force enumerated in
  List.iter
    (fun p ->
      let f = Formula.inited alpha0 in
      check_valid env "4" Formula.(knows p f ==> knows p (knows p f)))
    pids

(* Negative introspection: ~K_p phi => K_p ~K_p phi (axiom 5). *)
let axiom_negative_introspection () =
  let env = Lazy.force enumerated in
  List.iter
    (fun p ->
      let f = Formula.crashed 1 in
      check_valid env "5"
        Formula.(neg (knows p f) ==> knows p (neg (knows p f))))
    pids

(* Distribution: K_p (phi => psi) => (K_p phi => K_p psi) (axiom K). *)
let axiom_distribution () =
  let env = Lazy.force enumerated in
  let phi = Formula.inited alpha0 and psi = Formula.did 0 alpha0 in
  List.iter
    (fun p ->
      check_valid env "K"
        Formula.(
          knows p (phi ==> psi) ==> (knows p phi ==> knows p psi)))
    pids

(* Distributed knowledge refines individual knowledge: K_p phi => D_S phi
   for p in S. *)
let distributed_knowledge () =
  let env = Lazy.force enumerated in
  let phi = Formula.inited alpha0 in
  let s = Pid.Set.of_list [ 0; 1 ] in
  List.iter
    (fun p ->
      check_valid env "K=>D" Formula.(knows p phi ==> Dk (s, phi)))
    [ 0; 1 ];
  (* and D is still truthful *)
  check_valid env "D=>truth" Formula.(Dk (s, phi) ==> phi)

(* Locality (Section 2.3): K_p phi is local to p; formulas about p's own
   events are local to p. *)
let locality () =
  let env = Lazy.force enumerated in
  let phi = Formula.inited alpha0 in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "K_p%d local" p)
        true
        (Checker.local_to env (Formula.knows p phi) p))
    pids;
  Alcotest.(check bool)
    "init local to owner" true
    (Checker.local_to env phi 0);
  (* crash(1) is generally NOT local to p0 *)
  Alcotest.(check bool)
    "crash not local to bystander" false
    (Checker.local_to env (Formula.crashed 1) 0)

(* Stability (Section 2.3): init, crash, do are stable; "current suspicion"
   is not local-stable in general but our perfect reports only grow. *)
let stability () =
  let env = Lazy.force enumerated in
  List.iter
    (fun f ->
      Alcotest.(check bool) ("stable " ^ Formula.to_string f) true
        (Checker.stable env f))
    [
      Formula.inited alpha0;
      Formula.crashed 2;
      Formula.did 1 alpha0;
      Formula.(always (neg (crashed 0)));
      Formula.knows 1 (Formula.inited alpha0);
    ]

(* Receiving an alpha-message teaches the receiver the initiation: the
   channel never corrupts, so the message witnesses init (DC3). *)
let knowledge_from_receipt () =
  let env = Lazy.force enumerated in
  let msg = Message.Coord_request (alpha0, Fact.Set.empty) in
  List.iter
    (fun p ->
      if p <> 0 then
        check_valid env "recv => K init"
          Formula.(
            Prim (Received (p, 0, msg)) ==> knows p (inited alpha0)))
    pids

(* Nobody knows the initiation before it happens; the owner knows it the
   moment it happens. *)
let knowledge_timing () =
  let env = Lazy.force enumerated in
  check_valid env "owner knows own init"
    Formula.(inited alpha0 ==> knows 0 (inited alpha0));
  (* bystanders cannot know at time 0 *)
  let sys = Checker.system env in
  for ri = 0 to System.run_count sys - 1 do
    List.iter
      (fun p ->
        if p <> 0 then
          Alcotest.(check bool) "no initial knowledge" false
            (Checker.holds env (Formula.knows p (Formula.inited alpha0))
               ~run:ri ~tick:0))
      pids
  done

(* With system-wide accurate reports, a suspicion IS knowledge of the
   crash: every indistinguishable point also carries the report. *)
let suspicion_is_knowledge_under_perfect_reports () =
  let env = Lazy.force enumerated in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if p <> q then
            check_valid env "suspect => K crash"
              Formula.(
                Prim (Suspects (p, q)) ==> knows p (crashed q)))
        pids)
    pids

(* The definitions the checker's cached rows must reproduce: the fold over
   [Pid.all] that adds each known-crashed [q] in ascending order, and the
   descending scan for the largest known [k]. *)
let knows_crashed_by_holds env p ~run ~tick =
  List.fold_left
    (fun acc q ->
      if Checker.holds env (Formula.knows p (Formula.crashed q)) ~run ~tick
      then Pid.Set.add q acc
      else acc)
    Pid.Set.empty pids

let max_known_crashed_by_holds env p s ~run ~tick =
  let rec down k =
    if k <= 0 then 0
    else if
      Checker.holds env
        (Formula.knows p (Formula.Prim (Formula.At_least_crashed (s, k))))
        ~run ~tick
    then k
    else down (k - 1)
  in
  down (Pid.Set.cardinal s)

let subsets = List.init 8 (Core.Simulate_fd.subset_of_index ~n:3)

let iter_points env f =
  let sys = Checker.system env in
  for ri = 0 to System.run_count sys - 1 do
    for tick = 0 to System.horizon sys ri do
      f ~run:ri ~tick
    done
  done

(* knows_crashed and max_known_crashed agree with the formula-level
   definitions at every point. The report sets must be equal as trees
   ([Stdlib.(=)]), not only as sets: f-run digests marshal them. *)
let knows_crashed_consistent () =
  List.iter
    (fun system ->
      let env = Lazy.force system in
      iter_points env (fun ~run ~tick ->
          List.iter
            (fun p ->
              let expected = knows_crashed_by_holds env p ~run ~tick in
              let got = Checker.knows_crashed env p ~run ~tick in
              if not (Stdlib.( = ) got expected) then
                Alcotest.failf
                  "knows_crashed p%d run%d tick%d: %s, expected %s" p run tick
                  (Pid.Set.to_string got)
                  (Pid.Set.to_string expected);
              List.iter
                (fun s ->
                  Alcotest.(check int)
                    (Printf.sprintf "max_known_crashed p%d %s run%d tick%d" p
                       (Pid.Set.to_string s) run tick)
                    (max_known_crashed_by_holds env p s ~run ~tick)
                    (Checker.max_known_crashed env p s ~run ~tick))
                subsets)
            pids))
    [ enumerated; two_crashes ]

(* max_known_crashed fills a row's [k] entries as its downward scan
   reaches them, so it memoizes what the formula-by-formula scan does: at
   a point where [p] knows of two crashes, [k = 1] is never evaluated. *)
let known_count_memo () =
  let env = Lazy.force two_crashes in
  let full = Pid.Set.full 3 in
  let found = ref None in
  iter_points env (fun ~run ~tick ->
      List.iter
        (fun p ->
          if
            !found = None
            && Checker.max_known_crashed env p full ~run ~tick = 2
          then found := Some (run, tick, p))
        pids);
  match !found with
  | None -> Alcotest.fail "no point where a process knows of two crashes"
  | Some (run, tick, p) ->
      let rows = Checker.make (Checker.system env) in
      let formulas = Checker.make (Checker.system env) in
      Alcotest.(check int) "rows" 2
        (Checker.max_known_crashed rows p full ~run ~tick);
      Alcotest.(check int) "formulas" 2
        (max_known_crashed_by_holds formulas p full ~run ~tick);
      Alcotest.(check int) "memo entries"
        (Checker.memo_entries formulas)
        (Checker.memo_entries rows)

(* Two domains fill the rows of one fresh env at once. Each must answer
   what the formula-level definitions answer on a sequential env, and the
   shared memo must end with exactly the sequential env's tables. *)
let knows_crashed_domain_safe () =
  let sys = Checker.system (Lazy.force two_crashes) in
  let answers env ~known ~count order =
    let out = ref [] in
    iter_points env (fun ~run ~tick ->
        List.iter
          (fun p ->
            let counts = List.map (fun s -> count env p s ~run ~tick) subsets in
            out := (p, run, tick, known env p ~run ~tick, counts) :: !out)
          order);
    List.sort Stdlib.compare !out
  in
  let sequential = Checker.make sys in
  let expected =
    answers sequential ~known:knows_crashed_by_holds
      ~count:max_known_crashed_by_holds pids
  in
  let shared = Checker.make sys in
  let ready = Atomic.make 0 in
  let spawn order =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        answers shared ~known:Checker.knows_crashed
          ~count:Checker.max_known_crashed order)
  in
  let d1 = spawn pids and d2 = spawn (List.rev pids) in
  let a1 = Domain.join d1 and a2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 = sequential" true (Stdlib.( = ) a1 expected);
  Alcotest.(check bool) "domain 2 = sequential" true (Stdlib.( = ) a2 expected);
  Alcotest.(check int) "memo entries"
    (Checker.memo_entries sequential)
    (Checker.memo_entries shared)

(* max_known_crashed is monotone in the subset and bounded by the truth. *)
let max_known_crashed_sane () =
  let env = Lazy.force enumerated in
  let sys = Checker.system env in
  let full = Pid.Set.of_list pids in
  for ri = 0 to min 40 (System.run_count sys - 1) do
    let h = System.horizon sys ri in
    let run = System.run sys ri in
    List.iter
      (fun p ->
        let k = Checker.max_known_crashed env p full ~run:ri ~tick:h in
        let truth = Pid.Set.cardinal (Run.faulty run) in
        Alcotest.(check bool) "k <= |F|" true (k <= truth);
        let sub = Pid.Set.of_list [ 1 ] in
        let ks = Checker.max_known_crashed env p sub ~run:ri ~tick:h in
        Alcotest.(check bool) "monotone" true (ks <= k))
      pids
  done

let suite =
  [
    Alcotest.test_case "axiom T (knowledge is truthful)" `Quick axiom_truth;
    Alcotest.test_case "axiom 4 (positive introspection)" `Quick
      axiom_positive_introspection;
    Alcotest.test_case "axiom 5 (negative introspection)" `Quick
      axiom_negative_introspection;
    Alcotest.test_case "axiom K (distribution)" `Quick axiom_distribution;
    Alcotest.test_case "distributed knowledge" `Quick distributed_knowledge;
    Alcotest.test_case "locality of formulas" `Quick locality;
    Alcotest.test_case "stability of formulas" `Quick stability;
    Alcotest.test_case "receipt teaches initiation" `Quick
      knowledge_from_receipt;
    Alcotest.test_case "knowledge timing" `Quick knowledge_timing;
    Alcotest.test_case "suspicion = knowledge under perfect reports" `Quick
      suspicion_is_knowledge_under_perfect_reports;
    Alcotest.test_case "knows_crashed consistency" `Quick
      knows_crashed_consistent;
    Alcotest.test_case "max_known_crashed sanity" `Quick
      max_known_crashed_sane;
    Alcotest.test_case "max_known_crashed memoizes only scanned k" `Quick
      known_count_memo;
    Alcotest.test_case "knows_crashed rows domain-safe" `Quick
      knows_crashed_domain_safe;
  ]
