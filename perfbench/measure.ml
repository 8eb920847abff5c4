(* Clocks, order statistics, memory and host facts shared by udc_bench. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* [timed f] is [f ()] with its wall seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_between t0 (now_ns ()))

(* Minor words allocated by the calling domain (OCaml 5 counts per domain). *)
let minor_words () = Gc.minor_words ()

(* Wraps the timed part of every repeat. The traced run points it at the
   GC event reader, so collections are counted over the work only. *)
let window : ((unit -> unit) -> unit) ref = ref (fun f -> f ())

(* [work f] is [f ()] with its wall seconds and the calling domain's minor
   words: the measured part of a repeat, checks excluded. *)
let work f =
  let r = ref None and wall = ref 0.0 and words = ref 0.0 in
  !window (fun () ->
      let w0 = minor_words () in
      let t0 = now_ns () in
      r := Some (f ());
      wall := seconds_between t0 (now_ns ());
      words := minor_words () -. w0);
  (Option.get !r, !wall, !words)

(* Host speed. The shared host's speed drifts by up to 2x within minutes,
   most of all for allocating, memory-bound code such as this benchmark's
   workloads; a longer run cannot average that away. [reference ()] times
   a fixed piece of work of the same kind, with no library code in it:
   building and folding a 200000-entry integer map, about 8 MB of tree
   nodes. [reference_on ~domains:2] runs it on two domains at once and
   times both: with the stop-the-world collections they share, that is
   what the second core adds. Wall-clock metrics at [d] domains are
   scaled to a host on which [reference_on ~domains:d] takes
   [nominal_reference_s ~domains:d]. *)
module Int_map = Map.Make (Int)

let nominal_reference_s ~domains = if domains = 1 then 0.2 else 0.3

let reference () =
  let t0 = now_ns () in
  let m = ref Int_map.empty in
  for i = 1 to 200_000 do
    m := Int_map.add ((i * 7919) land 0xFFFFF) i !m
  done;
  ignore (Sys.opaque_identity (Int_map.fold (fun _ v acc -> acc + v) !m 0));
  seconds_between t0 (now_ns ())

let reference_on ~domains =
  if domains = 1 then reference ()
  else begin
    let t0 = now_ns () in
    let other = Domain.spawn reference in
    ignore (reference ());
    ignore (Domain.join other);
    seconds_between t0 (now_ns ())
  end

(* [reference_in_child ~domains] is [reference_on ~domains] timed in a
   fresh process (this program, run with --reference), so that neither
   its heap nor its resident set mixes with the workload's. *)
let reference_in_child ~domains =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--reference"; string_of_int domains |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match (Unix.waitpid [] pid, float_of_string_opt line) with
  | (_, Unix.WEXITED 0), Some s -> s
  | _ -> failwith "the reference process failed"

let sorted l = List.sort Float.compare l

(* Linear-interpolated quantile of a sorted array, [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile_sorted (Array.of_list (sorted l)) 0.5

(* Interquartile range as a share of the median: the spread figure printed
   beside every median. *)
let spread l =
  let a = Array.of_list (sorted l) in
  let m = quantile_sorted a 0.5 in
  if m = 0.0 then 0.0 else (quantile_sorted a 0.75 -. quantile_sorted a 0.25) /. m

(* The tail of a latency sample: the highest percentile that still has at
   least ten samples beyond it. Below 21 samples no such percentile lies
   above the median, so the maximum is reported instead. Returns the
   value, the percentile it sits at, and the sample count. *)
let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then (nan, nan, 0)
  else if n < 21 then (a.(n - 1), 100.0, n)
  else
    let k = n - 11 in
    (a.(k), 100.0 *. float_of_int (k + 1) /. float_of_int n, n)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f kB" (fun kb -> kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let nproc () =
  match Unix.open_process_in "nproc 2>/dev/null" with
  | exception Unix.Unix_error _ -> 0
  | ic ->
      let v = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
      ignore (Unix.close_process_in ic);
      v

(* The host fingerprint printed with every result. *)
let host_json () =
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": %S, \
     \"flambda\": %b, \"word_size\": %d}"
    (nproc ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_config.flambda Sys.word_size
