(* Warmed micro-timings of the parts of one scheduling slot, at a
   workload's shape: ns per call (median over batches) and minor words per
   call (the calling domain's allocation over all timed batches). *)

type shape = {
  n : int;  (** processes *)
  loss : float;  (** channel loss rate *)
  hist_len : int;  (** events in a sealed history *)
  process : unit -> Protocol.t;
      (** a fresh process running the workload's Ack-UDC, initiated *)
}

let alpha = Action_id.make ~owner:0 ~tag:0

(* Process 0 running Ack-UDC among [n] processes, with [alpha] initiated. *)
let ack_udc n () =
  Protocol.on_init (Protocol.make (module Core.Ack_udc.P) ~n ~me:0) alpha

let batches = 9

(* [time ~prepare ~batch] builds fresh state with [prepare] (untimed),
   then times [batch state], which returns how many calls it made. One
   warm-up batch is discarded. *)
let time ~prepare ~batch =
  ignore (batch (prepare ()));
  let ns = ref [] and words = ref 0.0 and calls = ref 0 in
  for _ = 1 to batches do
    let st = prepare () in
    let w0 = Measure.minor_words () in
    let t0 = Measure.now_ns () in
    let k = batch st in
    let t1 = Measure.now_ns () in
    words := !words +. (Measure.minor_words () -. w0);
    calls := !calls + k;
    ns := (Int64.to_float (Int64.sub t1 t0) /. float_of_int (max 1 k)) :: !ns
  done;
  (Measure.median !ns, !words /. float_of_int (max 1 !calls))

let calls = 20_000

let prng _ =
  time
    ~prepare:(fun () -> Prng.create 7L)
    ~batch:(fun g ->
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (Prng.next_int64 g))
      done;
      calls)

let decision_query query shape ~record =
  time
    ~prepare:(fun () -> Decision.random ~record ~seed:11L ())
    ~batch:(fun src ->
      for i = 1 to calls do
        ignore (Sys.opaque_identity (query src shape i))
      done;
      calls)

let deliver src shape i =
  Decision.deliver src ~tick:i ~dst:(i mod shape.n) ~backlog:3 ~p:0.74

let drop src shape i =
  Decision.drop src ~tick:i ~src:(i mod shape.n)
    ~dst:((i + 1) mod shape.n)
    ~rate:shape.loss

let pick_keys = [| 11; 22; 33 |]

let pick src shape i =
  Decision.pick src ~tick:i ~dst:(i mod shape.n)
    ~keys:(fun () -> pick_keys)
    ~arity:3

let channel shape =
  let src = Decision.random ~seed:13L () in
  Channel.create ~n:shape.n
    ~decide:(fun ~now ~src:s ~dst ~rate ->
      Decision.drop src ~tick:now ~src:s ~dst ~rate)
    ~loss_rate:shape.loss ~max_consecutive_drops:8 ()

let link shape i = (i mod shape.n, ((i * 7) + 1) mod shape.n)
let heartbeat i = Message.Heartbeat (i land 7)

let send_all ch shape k =
  let kept = ref [] in
  for i = 1 to k do
    let src, dst = link shape i in
    match Channel.send ch ~now:i ~src ~dst (heartbeat i) with
    | `Kept -> kept := (src, dst, heartbeat i) :: !kept
    | `Dropped -> ()
  done;
  !kept

let channel_calls = 5_000

let channel_send shape =
  time
    ~prepare:(fun () -> channel shape)
    ~batch:(fun ch ->
      ignore (Sys.opaque_identity (send_all ch shape channel_calls));
      channel_calls)

let channel_deliver shape =
  time
    ~prepare:(fun () ->
      let ch = channel shape in
      (ch, List.rev (send_all ch shape channel_calls)))
    ~batch:(fun (ch, kept) ->
      List.iter (fun (src, dst, msg) -> Channel.deliver ch ~src ~dst msg) kept;
      List.length kept)

let oracle_poll shape =
  let crashed = Pid.Set.of_list [ 0; shape.n / 2 ] in
  time
    ~prepare:(fun () -> Detector.Oracles.perfect ())
    ~batch:(fun (o : Oracle.t) ->
      for i = 1 to calls do
        let view =
          { Oracle.now = i; n = shape.n; crashed; planned_faulty = crashed }
        in
        ignore (Sys.opaque_identity (o.Oracle.poll (i mod shape.n) view))
      done;
      calls)

let step_calls = 2_000

let protocol_step shape =
  time ~prepare:shape.process
    ~batch:(fun st ->
      let st = ref st in
      for now = 1 to step_calls do
        st := fst (Protocol.step !st ~now)
      done;
      ignore (Sys.opaque_identity !st);
      step_calls)

let event shape i =
  Event.Send { dst = i mod shape.n; msg = Message.Heartbeat (i land 7) }

let builder = History.Builder.fresh ()

let history_append shape =
  time
    ~prepare:(fun () -> History.Builder.reset builder)
    ~batch:(fun () ->
      for i = 1 to calls do
        History.Builder.append builder (event shape i) ~tick:i
      done;
      calls)

let seal_calls = 2_000

let history_seal shape =
  time
    ~prepare:(fun () ->
      History.Builder.reset builder;
      for i = 1 to shape.hist_len do
        History.Builder.append builder (event shape i) ~tick:i
      done)
    ~batch:(fun () ->
      for _ = 1 to seal_calls do
        ignore (Sys.opaque_identity (History.Builder.seal builder))
      done;
      seal_calls)

(* Name and measurement of every slot part, in report order. *)
let parts =
  [
    ("prng.next_int64", prng);
    ("decision.deliver", decision_query deliver ~record:false);
    ("decision.deliver_rec", decision_query deliver ~record:true);
    ("decision.drop", decision_query drop ~record:false);
    ("decision.drop_rec", decision_query drop ~record:true);
    ("decision.pick", decision_query pick ~record:false);
    ("decision.pick_rec", decision_query pick ~record:true);
    ("channel.send", channel_send);
    ("channel.deliver", channel_deliver);
    ("oracle.poll", oracle_poll);
    ("protocol.step", protocol_step);
    ("history.append", history_append);
    ("history.seal", history_seal);
  ]

let metric_names =
  List.concat_map
    (fun (name, _) ->
      [ ("slot." ^ name ^ "_ns", "ns"); ("slot." ^ name ^ "_words", "words/call") ])
    parts

(* [(metric, value)] for every slot part at [shape]. *)
let measure shape =
  List.concat_map
    (fun (name, f) ->
      let ns, words = f shape in
      [ ("slot." ^ name ^ "_ns", ns); ("slot." ^ name ^ "_words", words) ])
    parts
