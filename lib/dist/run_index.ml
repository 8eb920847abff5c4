type counts = {
  sends : int;
  recvs : int;
  dos : int;
  inits : int;
  crashes : int;
  suspects : int;
}

(* First-tick table of the message primitives, keyed by value: the hash
   and equality are {!Message.hash}/{!Message.equal}, both canonical over
   set-valued payloads. *)
module Msg_tbl = Hashtbl.Make (struct
  type t = int * int * Message.t (* process, peer, message *)

  let equal (p, q, m) (p', q', m') = p = p' && q = q' && Message.equal m m'
  let hash (p, q, m) = Fnv.mix (Fnv.mix (Fnv.mix Fnv.seed p) q) (Message.hash m)
end)

type messages = {
  first_sends : int Msg_tbl.t; (* src,dst,msg *)
  first_recvs : int Msg_tbl.t; (* dst,src,msg *)
}

type t = {
  run : Run.t;
  first_dos : (int * int * int, int) Hashtbl.t; (* p,owner,tag *)
  first_inits : (int * int, int) Hashtbl.t; (* owner,tag *)
  initiated : (Action_id.t * int) list;
  all_actions : Action_id.t list;
  performers : (int * int, Pid.t list) Hashtbl.t; (* owner,tag -> pids asc *)
  decisions : int option array;
  suspicions : (int * Pid.Set.t) array array;
  all_suspicions : (int * Pid.Set.t) array array;
  gen_reports : (int * Pid.Set.t * int) array array;
  faulty : Pid.Set.t;
  counts : counts;
  (* sections built on first read; see [force] *)
  events : (Event.t * int) array array option Atomic.t; (* [p] -> chrono *)
  messages : messages option Atomic.t;
  gossip : (int * Pid.Set.t) array array option Atomic.t;
}

let action_key a = (Action_id.owner a, Action_id.tag a)
let rev_array l = Array.of_list (List.rev l)

let build r =
  let n = Run.n r in
  let first_dos = Hashtbl.create 16 in
  let first_inits = Hashtbl.create 16 in
  let performers = Hashtbl.create 16 in
  let action_set = ref Action_id.Set.empty in
  let decisions = Array.make n None in
  let sends = ref 0
  and recvs = ref 0
  and dos = ref 0
  and inits = ref 0
  and crashes = ref 0
  and suspects = ref 0 in
  let first tbl key tick =
    if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key tick
  in
  let initiated_rev = ref [] in
  let susp_rev = Array.make n [] in
  let all_susp_rev = Array.make n [] in
  let gen_rev = Array.make n [] in
  for p = 0 to n - 1 do
    History.iter
      (fun e ~tick ->
        match e with
        | Event.Send _ -> incr sends
        | Event.Recv _ -> incr recvs
        | Event.Do a ->
            incr dos;
            let key = action_key a in
            first first_dos (p, fst key, snd key) tick;
            action_set := Action_id.Set.add a !action_set;
            (match Hashtbl.find_opt performers key with
            | Some (q :: _) when Pid.equal q p -> () (* repeated Do by p *)
            | Some ps -> Hashtbl.replace performers key (p :: ps)
            | None -> Hashtbl.add performers key [ p ]);
            if decisions.(p) = None then decisions.(p) <- Some (Action_id.tag a)
        | Event.Init a ->
            incr inits;
            (* owner-only, matching the Inited primitive: a (malformed)
               init at a non-owner still shows up in [initiated] *)
            if Pid.equal p (Action_id.owner a) then
              first first_inits (action_key a) tick;
            action_set := Action_id.Set.add a !action_set;
            initiated_rev := (a, tick) :: !initiated_rev
        | Event.Crash -> incr crashes
        | Event.Suspect rep -> (
            incr suspects;
            let s = Report.suspects_in ~n rep in
            all_susp_rev.(p) <- (tick, s) :: all_susp_rev.(p);
            match rep with
            | Report.Gen (gs, k) -> gen_rev.(p) <- (tick, gs, k) :: gen_rev.(p)
            | Report.Std _ | Report.Correct_set _ ->
                susp_rev.(p) <- (tick, s) :: susp_rev.(p)))
      (Run.history r p)
  done;
  Hashtbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) performers;
  {
    run = r;
    first_dos;
    first_inits;
    initiated = List.rev !initiated_rev;
    all_actions = Action_id.Set.elements !action_set;
    performers;
    decisions;
    suspicions = Array.map rev_array susp_rev;
    all_suspicions = Array.map rev_array all_susp_rev;
    gen_reports = Array.map rev_array gen_rev;
    faulty = Run.faulty r;
    counts =
      {
        sends = !sends;
        recvs = !recvs;
        dos = !dos;
        inits = !inits;
        crashes = !crashes;
        suspects = !suspects;
      };
    events = Atomic.make None;
    messages = Atomic.make None;
    gossip = Atomic.make None;
  }

let build_events r =
  Array.init (Run.n r) (fun p -> History.timed_array (Run.history r p))

let build_messages r =
  let first_sends = Msg_tbl.create 64 in
  let first_recvs = Msg_tbl.create 64 in
  let first tbl key tick =
    if not (Msg_tbl.mem tbl key) then Msg_tbl.add tbl key tick
  in
  for p = 0 to Run.n r - 1 do
    History.iter
      (fun e ~tick ->
        match e with
        | Event.Send { dst; msg } -> first first_sends (p, dst, msg) tick
        | Event.Recv { src; msg } -> first first_recvs (p, src, msg) tick
        | _ -> ())
      (Run.history r p)
  done;
  { first_sends; first_recvs }

(* Prop 2.1's derived timeline: own standard reports plus suspicions heard
   in [Gossip] messages, accumulated; a change point whenever the union
   grows. *)
let build_gossip r =
  Array.init (Run.n r) (fun p ->
      let cur = ref Pid.Set.empty and changes = ref [] in
      let grow tick s =
        let cur' = Pid.Set.union !cur s in
        if not (Pid.Set.equal cur' !cur) then begin
          changes := (tick, cur') :: !changes;
          cur := cur'
        end
      in
      History.iter
        (fun e ~tick ->
          match e with
          | Event.Recv { msg = Message.Gossip s; _ }
          | Event.Suspect (Report.Std s) ->
              grow tick s
          | _ -> ())
        (Run.history r p);
      rev_array !changes)

(* Sections are built outside any lock and published with a CAS: two
   domains forcing the same section may both build it, and the loser's
   copy is dropped — the same discipline as [of_run]'s cache. *)
let force cell build t =
  match Atomic.get cell with
  | Some v -> v
  | None ->
      let v = build t.run in
      if Atomic.compare_and_set cell None (Some v) then v
      else Option.get (Atomic.get cell)

(* One index per run: memoized on the run's physical identity, weakly (the
   cache entry dies with the run), behind a mutex so that the parallel
   ensemble engine can index runs from several domains at once. The index
   is built outside the lock — worst case two domains race to build the
   same index and one copy is dropped. *)
module Cache = Ephemeron.K1.Make (struct
  type nonrec t = Run.t

  let equal = ( == )

  (* [Hashtbl.hash] is collision-tolerant here: entries are keyed by
     physical identity, so a hash collision between distinct runs only
     lengthens one bucket's chain — it can never alias two runs. *)
  let hash = Hashtbl.hash
end)

let cache : t Cache.t = Cache.create 64
let cache_lock = Mutex.create ()

let of_run r =
  match Mutex.protect cache_lock (fun () -> Cache.find_opt cache r) with
  | Some idx -> idx
  | None ->
      let idx = build r in
      Mutex.protect cache_lock (fun () ->
          match Cache.find_opt cache r with
          | Some existing -> existing
          | None ->
              Cache.add cache r idx;
              idx)

let run t = t.run
let n t = Run.n t.run
let horizon t = Run.horizon t.run
let events t p = (force t.events build_events t).(p)

let first_send t ~src ~dst msg =
  Msg_tbl.find_opt (force t.messages build_messages t).first_sends
    (src, dst, msg)

let first_recv t ~dst ~src msg =
  Msg_tbl.find_opt (force t.messages build_messages t).first_recvs
    (dst, src, msg)

let crash_tick t p = Run.crash_tick t.run p
let first_do t p a = Hashtbl.find_opt t.first_dos (p, Action_id.owner a, Action_id.tag a)
let first_init t a = Hashtbl.find_opt t.first_inits (action_key a)
let faulty t = t.faulty
let correct t = Pid.Set.complement (n t) t.faulty
let initiated t = t.initiated
let all_actions t = t.all_actions

let performers t a =
  Option.value ~default:[] (Hashtbl.find_opt t.performers (action_key a))

let decision t p = t.decisions.(p)
let suspicions t p = t.suspicions.(p)
let all_suspicions t p = t.all_suspicions.(p)
let gossip_suspicions t p = (force t.gossip build_gossip t).(p)
let gen_reports t p = t.gen_reports.(p)

let suspects_at changes m =
  (* greatest change point with tick <= m *)
  let lo = ref 0 and hi = ref (Array.length changes) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst changes.(mid) <= m then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then Pid.Set.empty else snd changes.(!lo - 1)

let final_suspects t p = suspects_at t.suspicions.(p) (horizon t)

let ever_suspects t p q =
  Array.exists (fun (_, s) -> Pid.Set.mem q s) t.suspicions.(p)

let counts t = t.counts
