(* The benchmark program.

     udc_bench --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): set up seven times (the median is setup_s), then
   repeat the workload at 1 domain for 0.4 S seconds and then at 2
   domains for 0.6 S seconds, and report the end-to-end metrics, with
   every wall-clock figure scaled by the host-speed reference timed
   alongside (Measure.reference_on; --reference D times it once at D
   domains). Traced
   (--trace 1): set up once, time the slot parts at the workload's shape,
   interleave traced and untraced repeats (their difference is the tracing
   overhead) in the same two phases, run the layer probes between the
   phases, and report the per-layer metrics with self time per layer.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics; the line before it is the host
   fingerprint. Exits 2 on bad arguments. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("udc_bench: " ^ s);
      exit 2)
    fmt

(* pool counters over one repeat *)
type pool = { jobs : int; busy_s : float; idle_s : float; caller : int; tasks : int }

type rep = {
  traced : bool;
  domains : int;
  op : int;
  out : Workloads.outcome;
  pool : pool;
  ref_s : float option;
      (** the host-speed reference, when one was timed just before *)
  scale : float;
      (** times measured in the repeat, multiplied by this, are times on
          the nominal host: from the latest reference, 1 without one *)
}

let pool_delta (a : Ensemble.stats) (b : Ensemble.stats) =
  let total xs = Array.fold_left ( +. ) 0.0 xs in
  {
    jobs = b.Ensemble.jobs - a.Ensemble.jobs;
    busy_s = total b.Ensemble.busy_s -. total a.Ensemble.busy_s;
    idle_s = total b.Ensemble.idle_s -. total a.Ensemble.idle_s;
    caller = b.Ensemble.caller_tasks - a.Ensemble.caller_tasks;
    tasks = b.Ensemble.pool_tasks - a.Ensemble.pool_tasks;
  }

(* Runs one unrecorded full-size repeat at the plan's domain count, so the
   heap, the arenas and the pool reach the workload's size, then repeats
   [plan] cyclically while some kind of repeat has run fewer than
   [min_each] times or the next one fits in [seconds]. Ops are numbered
   from [first_op]. Traced kinds record spans and GC events. With
   [reference], the host-speed reference is timed, at the repeat's domain
   count, before the first repeat and then before each repeat that starts
   [reference_every_s] or more after the last one; each repeat is scaled
   by the latest. *)
let reference_every_s = 1.0

let loop ~first_op ~seconds ~min_each ~plan ~gc ~reference
    (inst : Workloads.instance) =
  ignore (inst.Workloads.repeat ~op:0 ~domains:(snd plan.(0)));
  let t0 = Measure.now_ns () in
  let elapsed () = Measure.seconds_between t0 (Measure.now_ns ()) in
  let reps = ref [] and took = Hashtbl.create 4 in
  let count k = List.length (Hashtbl.find_all took k) in
  let typical k = Measure.median (Hashtbl.find_all took k) in
  let kinds = List.sort_uniq compare (Array.to_list plan) in
  let i = ref 0 and last_ref = ref neg_infinity and scale = ref 1.0 in
  let more () =
    let k = plan.(!i mod Array.length plan) in
    List.exists (fun k -> count k < min_each) kinds
    || elapsed () +. typical k <= seconds
  in
  while more () do
    let ((traced, domains) as k) = plan.(!i mod Array.length plan) in
    let op = first_op + !i + 1 in
    let ref_s =
      if reference && elapsed () -. !last_ref >= reference_every_s then begin
        last_ref := elapsed ();
        let r = Measure.reference_in_child ~domains in
        scale := Measure.nominal_reference_s ~domains /. r;
        Some r
      end
      else None
    in
    (* Repeats start from a collected heap. Without this the 5.1 major GC
       lags behind the explorer's allocation and the heap grows by
       hundreds of MiB per repeat (live data stays flat), slowing every
       later repeat. *)
    Gc.full_major ();
    let s0 = Measure.now_ns () in
    if traced then begin
      Span.enable ();
      Option.iter (fun gc -> Measure.window := Gc_events.measure gc) gc
    end;
    let e0 = Ensemble.stats () in
    let out = inst.Workloads.repeat ~op ~domains in
    let pool = pool_delta e0 (Ensemble.stats ()) in
    Span.disable ();
    Measure.window := (fun f -> f ());
    Hashtbl.add took k (Measure.seconds_between s0 (Measure.now_ns ()));
    reps := { traced; domains; op; out; pool; ref_s; scale = !scale } :: !reps;
    Printf.printf "  repeat %2d  d%d%s  %8.4f s  %.6g units/s\n" op domains
      (if traced then " traced" else "")
      out.Workloads.wall_s
      (float_of_int out.Workloads.units /. out.Workloads.wall_s);
    incr i
  done;
  List.rev !reps

(* All 1-domain repeats run first, in a process whose domain pool has not
   been spawned yet, as in a run with --domains 1: once the pool exists,
   every minor collection also synchronises with its parked worker, which
   made one-domain explore searches 35-40% slower. [between d1] runs after
   the 1-domain repeats, still without the pool. The first 2-domain repeat
   spawns the pool and is not recorded. [plan d] lists the kinds of repeat
   at [d] domains. The 2-domain phase gets the larger share of the budget
   because its repeats spread more: they also wait on the host for the
   second core. *)
let phases ?(between = ignore) ~seconds ~min_each ~gc ~reference ~plan inst =
  let d1 =
    loop ~first_op:0 ~seconds:(seconds *. 0.4) ~min_each ~gc ~reference
      ~plan:(plan 1) inst
  in
  between d1;
  let d2 =
    loop ~first_op:(List.length d1) ~seconds:(seconds *. 0.6) ~min_each ~gc
      ~reference ~plan:(plan 2) inst
  in
  d1 @ d2

(* Checks and their failures over all repeats: the workload's own, plus
   one per repeat comparing its fingerprint with that of the first repeat
   of the same input variant — outputs must not depend on the domain
   count. *)
let verdict reps =
  let first = Hashtbl.create 8 in
  List.fold_left
    (fun (attempted, failures) r ->
      let o = r.out in
      let v = o.Workloads.variant in
      let failures =
        match Hashtbl.find_opt first v with
        | None ->
            Hashtbl.add first v r;
            failures
        | Some f when f.out.Workloads.fingerprint = o.Workloads.fingerprint ->
            failures
        | Some f ->
            Printf.sprintf
              "repeat %d (domains=%d) output differs from repeat %d \
               (domains=%d)"
              r.op r.domains f.op f.domains
            :: failures
      in
      (attempted + o.Workloads.attempted + 1, o.Workloads.failures @ failures))
    (0, []) reps

let select reps ~traced ~domains =
  List.filter (fun r -> r.traced = traced && r.domains = domains) reps

let rates reps =
  List.map
    (fun r -> float_of_int r.out.Workloads.units /. r.out.Workloads.wall_s)
    reps

let sum f reps = List.fold_left (fun acc r -> acc +. f r) 0.0 reps

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_d1", "units/s");
    ("throughput_d2", "units/s");
    ("run_p50_ms", "ms");
    ("run_tail_ms", "ms");
    ("minor_words_per_unit", "words");
    ("peak_rss_mb", "MiB");
  ]

let common_layers =
  [
    ("ensemble.jobs", "count");
    ("ensemble.idle_share", "share");
    ("ensemble.caller_task_share", "share");
    ("gc.minor_per_unit", "count");
    ("gc.major_per_unit", "count");
    ("gc.pause_share", "share");
    ("gc.pause_p99_us", "us");
    ("trace.overhead_share", "share");
  ]

(* Every span name the workloads' repeats record; each gets a self-time
   share. The layer probes' spans (shard.execute, run.digest,
   checker.query, problem.run, hb.of_journal, seen.check_add) are not part
   of a repeat: their cost is reported by the layer metrics they feed. *)
let span_names =
  [
    "bench.grid";
    "ensemble.cell";
    "sim.execute";
    "spec.check";
    "scale.estimate";
    "bench.thm36";
    "enumerate.runs";
    "system.of_runs";
    "checker.make";
    "simulate_fd.f_run";
    "detector.spec";
    "engine.search";
  ]

let per_layer =
  Slots.metric_names
  @ List.concat_map (fun w -> w.Workloads.owned) Workloads.all
  @ common_layers
  @ List.map (fun s -> ("self." ^ s, "share")) span_names

let json_number v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

(* Prints the host line and the result line; a non-finite metric makes
   the result incorrect (JSON has no NaN). *)
let emit ~attempted ~failures ~spec values =
  let bad = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name values) ~default:0.0 in
        let v =
          if Float.is_finite v then v
          else begin
            bad := name :: !bad;
            0.0
          end
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      spec
  in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  List.iter (fun m -> Printf.printf "FAILED: metric %s is not finite\n" m) !bad;
  Printf.printf "host %s\n" (Measure.host_json ());
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = [] && !bad = [])
    attempted (List.length failures)
    (String.concat ", " metrics)

(* The latency figures of the 1-domain repeats [per_repeat] (each a list
   of run latencies): the median of all runs, the tail, and how the tail
   was taken. With enough runs in every repeat the tail is taken within
   each repeat and the median over repeats is reported, so a host slowdown
   during a few repeats does not move it; otherwise it comes from the
   pooled runs. *)
let latency per_repeat =
  let lat = List.concat per_repeat in
  let tail, note =
    if List.for_all (fun l -> List.length l >= 21) per_repeat then
      let tails = List.map Measure.tail per_repeat in
      let _, pct, k = List.hd tails in
      ( Measure.median (List.map (fun (t, _, _) -> t) tails),
        Printf.sprintf "median over %d repeats of each repeat's p%.1f of %d runs"
          (List.length tails) pct k )
    else
      let t, pct, k = Measure.tail lat in
      ( t,
        if k < 21 then Printf.sprintf "maximum of %d runs" k
        else Printf.sprintf "p%.2f of %d runs" pct k )
  in
  (Measure.median lat, tail, note)

let setup_count = 7

let untraced (w : Workloads.t) ~seed ~seconds =
  let setups =
    List.init setup_count (fun _ ->
        let ref_s = Measure.reference_in_child ~domains:1 in
        let inst, s = Measure.timed (fun () -> w.setup ~seed) in
        (inst, s, s *. Measure.nominal_reference_s ~domains:1 /. ref_s, ref_s))
  in
  let inst, _, _, _ = List.hd (List.rev setups) in
  let reps =
    phases ~seconds ~min_each:3 ~gc:None ~reference:true
      ~plan:(fun d -> [| (false, d) |])
      inst
  in
  let attempted, failures = verdict reps in
  let d1 = select reps ~traced:false ~domains:1
  and d2 = select reps ~traced:false ~domains:2 in
  let scaled_rates reps =
    List.map
      (fun r ->
        float_of_int r.out.Workloads.units /. (r.out.Workloads.wall_s *. r.scale))
      reps
  in
  let p50_raw, tail_raw, tail_note =
    latency (List.map (fun r -> r.out.Workloads.latencies_ms) d1)
  in
  let p50, tail, _ =
    latency
      (List.map
         (fun r -> List.map (fun ms -> ms *. r.scale) r.out.Workloads.latencies_ms)
         d1)
  in
  let samples =
    sum (fun r -> float_of_int (List.length r.out.Workloads.latencies_ms)) d1
  in
  let units = sum (fun r -> float_of_int r.out.Workloads.units) d1 in
  let setup_raw = Measure.median (List.map (fun (_, s, _, _) -> s) setups) in
  let d1_raw = Measure.median (rates d1) and d2_raw = Measure.median (rates d2) in
  let values =
    [
      ("setup_s", Measure.median (List.map (fun (_, _, s, _) -> s) setups));
      ("throughput_d1", Measure.median (scaled_rates d1));
      ("throughput_d2", Measure.median (scaled_rates d2));
      ("run_p50_ms", p50);
      ("run_tail_ms", tail);
      ("minor_words_per_unit", sum (fun r -> r.out.Workloads.words) d1 /. units);
      ("peak_rss_mb", Measure.peak_rss_mb ());
    ]
  in
  let value name = List.assoc name values in
  let of_reps reps = List.filter_map (fun r -> r.ref_s) reps in
  Printf.printf "workload %s (unit: %s), seed %Ld, %d repeats at d1, %d at d2\n"
    w.name w.unit_name seed (List.length d1) (List.length d2);
  Printf.printf
    "  wall-clock metrics are scaled to a host that runs the reference in \
     %.3g s at 1 domain and %.3g s at 2; this one took (median) %.4g s \
     (set-up), %.4g s (d1 phase) and %.4g s (d2 phase)\n"
    (Measure.nominal_reference_s ~domains:1)
    (Measure.nominal_reference_s ~domains:2)
    (Measure.median (List.map (fun (_, _, _, r) -> r) setups))
    (Measure.median (of_reps d1))
    (Measure.median (of_reps d2));
  Printf.printf "  %-22s %.6g s  (measured %.6g s; setups: %s s)\n" "setup_s"
    (value "setup_s") setup_raw
    (String.concat ", "
       (List.map (fun (_, s, _, _) -> Printf.sprintf "%.3f" s) setups));
  List.iter
    (fun (name, reps, raw) ->
      Printf.printf
        "  %-22s %.6g %s/s  (measured %.6g; IQR/median %.1f%% over %d repeats)\n"
        name (value name) w.unit_name raw
        (100.0 *. Measure.spread (scaled_rates reps))
        (List.length reps))
    [ ("throughput_d1", d1, d1_raw); ("throughput_d2", d2, d2_raw) ];
  Printf.printf "  %-22s %.6g runs/s at d1, measured\n" "runs"
    (samples /. sum (fun r -> r.out.Workloads.wall_s) d1);
  Printf.printf "  %-22s %.6g  (d2/d1, measured)\n" "scaling" (d2_raw /. d1_raw);
  Printf.printf "  %-22s %.6g ms  (measured %.6g ms; %.0f runs)\n" "run_p50_ms"
    p50 p50_raw samples;
  Printf.printf "  %-22s %.6g ms  (measured %.6g ms; %s)\n" "run_tail_ms" tail
    tail_raw tail_note;
  Printf.printf "  %-22s %.6g words/%s at d1\n" "minor_words_per_unit"
    (value "minor_words_per_unit") w.unit_name;
  Printf.printf "  %-22s %.6g MiB\n" "peak_rss_mb" (value "peak_rss_mb");
  Printf.printf "  %-22s %.6g  (%d failed of %d checked)\n" "error_rate"
    (float_of_int (List.length failures) /. float_of_int (max 1 attempted))
    (List.length failures) attempted;
  emit ~attempted ~failures ~spec:end_to_end values

let trace_dir = Filename.concat "perfbench" "out"

let traced (w : Workloads.t) ~seed ~seconds =
  (* Under a file-size limit a write past it fails with an error instead of
     killing the process: the trace file is optional, the result is not. *)
  Sys.set_signal Sys.sigxfsz Sys.Signal_ignore;
  let t_start = Measure.now_ns () in
  let inst = w.setup ~seed in
  let gc = Gc_events.create () in
  let slots = Slots.measure inst.Workloads.shape in
  let budget =
    float_of_int seconds -. Measure.seconds_between t_start (Measure.now_ns ())
  in
  (* The layer probes run between the phases, at one domain and before the
     pool exists, as the 1-domain repeats whose spans they read did. *)
  let owned = ref [] in
  let probe d1 =
    let d1_ops = List.map (fun r -> r.op) (select d1 ~traced:true ~domains:1) in
    Span.enable ();
    owned :=
      inst.Workloads.layers ~keep:(fun op -> List.mem op d1_ops) (Span.all ());
    Span.disable ()
  in
  let reps =
    phases ~between:probe ~seconds:budget ~min_each:1 ~gc:(Some gc)
      ~reference:false
      ~plan:(fun d -> [| (false, d); (true, d); (true, d); (false, d) |])
      inst
  in
  Gc_events.stop gc;
  let owned = !owned in
  let attempted, failures = verdict reps in
  let tr1 = select reps ~traced:true ~domains:1 in
  let tr2 = select reps ~traced:true ~domains:2 in
  let traced_reps = tr1 @ tr2 in
  let per_unit reps =
    Measure.median
      (List.map
         (fun r -> r.out.Workloads.wall_s /. float_of_int r.out.Workloads.units)
         reps)
  in
  let overhead =
    per_unit tr1 /. per_unit (select reps ~traced:false ~domains:1) -. 1.0
  in
  (* pool counters over the traced repeats at 2 domains *)
  let busy = sum (fun r -> r.pool.busy_s) tr2 and idle = sum (fun r -> r.pool.idle_s) tr2 in
  let tasks = sum (fun r -> float_of_int r.pool.tasks) tr2 in
  let ensemble =
    [
      ( "ensemble.jobs",
        sum (fun r -> float_of_int r.pool.jobs) tr2 /. float_of_int (List.length tr2) );
      ("ensemble.idle_share", if busy +. idle > 0.0 then idle /. (busy +. idle) else 0.0);
      ( "ensemble.caller_task_share",
        if tasks = 0.0 then 0.0 else sum (fun r -> float_of_int r.pool.caller) tr2 /. tasks );
    ]
  in
  let units = sum (fun r -> float_of_int r.out.Workloads.units) traced_reps in
  let gc_wall = sum (fun r -> r.out.Workloads.wall_s) traced_reps in
  let g = gc.Gc_events.totals in
  let pauses = g.Gc_events.pauses_us in
  let gc_metrics =
    [
      ("gc.minor_per_unit", float_of_int g.Gc_events.minors /. units);
      ("gc.major_per_unit", float_of_int g.Gc_events.majors /. units);
      ( "gc.pause_share",
        Int64.to_float g.Gc_events.main_pause_ns /. 1e9 /. gc_wall );
      ( "gc.pause_p99_us",
        if pauses = [] then 0.0
        else Measure.quantile_sorted (Array.of_list (Measure.sorted pauses)) 0.99 );
    ]
  in
  (* Self time per layer over the traced 1-domain repeats only: the probes'
     spans (root op -1) and the 2-domain repeats, whose share of the
     budget depends on the host, are left out. *)
  let spans = Span.all () in
  let root = Span.root_op spans in
  let d1_ops = List.map (fun r -> r.op) tr1 in
  let in_repeats, probes =
    List.partition (fun s -> List.mem (root s) d1_ops) spans
  in
  let probes = List.filter (fun s -> root s < 0) probes in
  let layers = Span.layers in_repeats in
  let self_total = Hashtbl.fold (fun _ l acc -> acc +. l.Span.self_s) layers 0.0 in
  let self =
    List.map
      (fun name ->
        ( "self." ^ name,
          match Hashtbl.find_opt layers name with
          | Some l -> l.Span.self_s /. self_total
          | None -> 0.0 ))
      span_names
  in
  let values =
    slots @ owned @ ensemble @ gc_metrics
    @ [ ("trace.overhead_share", overhead) ]
    @ self
  in
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat trace_dir (Printf.sprintf "trace-%s-%Ld.json" w.name seed)
  in
  let written =
    match Span.write path spans with
    | () -> path
    | exception Sys_error e ->
        (try Sys.remove path with Sys_error _ -> ());
        "no file (" ^ e ^ ")"
  in
  Printf.printf "workload %s traced (unit: %s), seed %Ld; spans in %s\n" w.name
    w.unit_name seed written;
  Printf.printf "  %-20s %8s %10s %10s %8s   (%d traced repeats at d1)\n"
    "layer (span)" "calls" "total s" "self s" "self %" (List.length tr1);
  List.iter
    (fun name ->
      match Hashtbl.find_opt layers name with
      | None -> ()
      | Some l ->
          Printf.printf "  %-20s %8d %10.4f %10.4f %7.2f%%\n" name l.Span.calls
            l.Span.total_s l.Span.self_s
            (100.0 *. l.Span.self_s /. self_total))
    span_names;
  let probe_layers = Span.layers probes in
  List.iter
    (fun (name, (l : Span.layer)) ->
      Printf.printf "  %-20s %8d %10.4f %10.4f   probe, outside the repeats\n"
        name l.calls l.total_s l.self_s)
    (List.sort compare (List.of_seq (Hashtbl.to_seq probe_layers)));
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v when v <> 0.0 || List.mem_assoc name w.owned ->
          Printf.printf "  %-32s %.6g %s\n" name v unit
      | _ -> ())
    per_layer;
  Printf.printf
    "  tracing overhead %.2f%% per unit at d1 (%d traced vs %d untraced \
     repeats); GC events lost: %d\n"
    (100.0 *. overhead) (List.length tr1)
    (List.length (select reps ~traced:false ~domains:1))
    g.Gc_events.lost;
  let unmeasured =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name owned then None
        else Some ("layer metric " ^ name ^ " was not measured"))
      w.owned
  in
  emit ~attempted:(attempted + 1) ~failures:(unmeasured @ failures)
    ~spec:per_layer values

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let list = ref false and reference = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ( "--list-metrics",
        Arg.Set list,
        " print the metric names and units (run.py checks them against \
         BENCHMARK.json)" );
      ( "--reference",
        Arg.Set_int reference,
        "D time the host-speed reference once at D (1 or 2) domains and \
         print its seconds" );
    ]
    (fun a -> die "unexpected argument %S" a)
    "udc_bench --workload NAME --seed N --seconds S --trace 0|1";
  if !reference > 0 then begin
    Printf.printf "%.9f\n" (Measure.reference_on ~domains:(min 2 !reference));
    exit 0
  end;
  if !list then begin
    List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) end_to_end;
    List.iter (fun (n, u) -> Printf.printf "per_layer %s %s\n" n u) per_layer;
    exit 0
  end;
  let w =
    match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
        die "unknown workload %S (one of: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  let seed = Int64.of_int !seed in
  match !trace with
  | 0 -> untraced w ~seed ~seconds:(float_of_int !seconds)
  | 1 -> traced w ~seed ~seconds:!seconds
  | t -> die "--trace must be 0 or 1, not %d" t
