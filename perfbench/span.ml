(* Spans recorded around calls into the libraries' public functions.

   Tracing is off unless [enable] was called. Each domain appends to its
   own in-memory buffer (no lock on the record path); the buffers are
   merged only when the run ends, for the self-time table and the trace
   file. A span carries the id of the operation it belongs to ([op]: a
   seeded run, a repeat), so the spans of one operation share that id even
   when they ran on different domains. *)

type t = {
  id : int;
  parent : int;  (** 0 = root *)
  op : int;
  name : string;
  domain : int;
  start_ns : int64;
  stop_ns : int64;
}

let on = Atomic.make false
let next_id = Atomic.make 1
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let registry_lock = Mutex.create ()
let registry : t list ref list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

(* [run ~parent ~op name f] calls [f id], where [id] is the new span's id
   (pass it as [parent] to nested calls). Untraced, [f 0] runs directly. *)
let run ?(parent = 0) ~op name f =
  if not (Atomic.get on) then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let start_ns = Measure.now_ns () in
    let r = f id in
    let stop_ns = Measure.now_ns () in
    let b = Domain.DLS.get buffer_key in
    b :=
      {
        id;
        parent;
        op;
        name;
        domain = (Domain.self () :> int);
        start_ns;
        stop_ns;
      }
      :: !b;
    r
  end

(* [timed ~op name f] is [f ()] with its wall seconds, recorded as a root
   span when tracing is on. *)
let timed ~op name f = Measure.timed (fun () -> run ~op name (fun _ -> f ()))

(* Every span recorded so far, all domains. Call only between jobs. *)
let all () =
  Mutex.protect registry_lock (fun () -> List.concat_map ( ! ) !registry)

let duration s = Measure.seconds_between s.start_ns s.stop_ns

(* Seconds of [s] covered by none of its children. Children can run on
   other domains and overlap one another, so their intervals are merged
   (clipped to the parent) before being subtracted. *)
let self_time s children =
  let intervals =
    List.filter_map
      (fun c ->
        let a = max c.start_ns s.start_ns and b = min c.stop_ns s.stop_ns in
        if Int64.compare a b < 0 then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if Int64.compare a b < 0 then
          (Int64.add acc (Int64.sub b a), b)
        else (acc, reach))
      (0L, s.start_ns) intervals
  in
  duration s -. (Int64.to_float covered /. 1e9)

type layer = { calls : int; total_s : float; self_s : float }

(* Per span name: call count, total seconds and self seconds. *)
let layers spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let table = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = self_time s (Hashtbl.find_all children s.id) in
      let prev =
        Option.value (Hashtbl.find_opt table s.name)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace table s.name
        {
          calls = prev.calls + 1;
          total_s = prev.total_s +. duration s;
          self_s = prev.self_s +. self;
        })
    spans;
  table

(* [root_op spans] maps a span to the op of its root ancestor: the
   repeat it ran under, whatever op its own subtree uses. *)
let root_op spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec up s =
    match Hashtbl.find_opt by_id s.parent with Some p -> up p | None -> s.op
  in
  up

(* Mean seconds per call of the spans named [name] whose root op
   satisfies [keep]; 0 when there are none. *)
let mean_duration ?(keep = fun _ -> true) spans name =
  let root = root_op spans in
  let sum, k =
    List.fold_left
      (fun (sum, k) s ->
        if s.name = name && keep (root s) then (sum +. duration s, k + 1)
        else (sum, k))
      (0.0, 0) spans
  in
  if k = 0 then 0.0 else sum /. float_of_int k

(* Chrome trace-event JSON (complete events; ids and parents in args). *)
let write path spans =
  let t0 =
    List.fold_left
      (fun m s -> if Int64.compare s.start_ns m < 0 then s.start_ns else m)
      Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  let oc = open_out path in
  try
    output_string oc "{\"traceEvents\": [\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": \
           %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
           \"op\": %d}}\n"
          (if i = 0 then "" else ",")
          s.name s.domain (us s.start_ns)
          (us s.stop_ns -. us s.start_ns)
          s.id s.parent s.op)
      spans;
    output_string oc "]}\n";
    close_out oc
  with e ->
    close_out_noerr oc;
    raise e
