(* GC collections and pauses, read from the runtime's own event ring
   (Runtime_events, OCaml 5 stdlib). Used by the traced run only.

   A pause is an outermost interval of minor collection or major slice on
   one domain. Collections are counted on the main domain's ring (index
   0): every minor collection and every major cycle stops all domains, the
   main one included, so each is counted once there.

   The runtime maps one ring per possible domain (128 in 5.1) into a
   single file, so a ring big enough to hold a whole repeat's events
   (2^20 words) makes a 1 GiB file, which a file-size limit kills. Rings
   are kept small instead (run.py sets OCAMLRUNPARAM=e=14, a 17 MB file)
   and an interval timer drains them every [interval_s] seconds. *)

open Runtime_events

type totals = {
  mutable active : bool;
  mutable minors : int;
  mutable majors : int;
  mutable main_pause_ns : int64;
  mutable pauses_us : float list;
  mutable lost : int;
}

type t = { cursor : cursor; callbacks : Callbacks.t; totals : totals }

let is_pause = function EV_MINOR | EV_MAJOR_SLICE -> true | _ -> false

let interval_s = 0.01

(* One reader at a time. The timer's handler runs on whichever domain
   reaches a safe point first, possibly inside a poll of its own domain,
   so it only tries the lock and skips a tick it cannot take. *)
let lock = Mutex.create ()

let create () =
  start ();
  let s =
    {
      active = false;
      minors = 0;
      majors = 0;
      main_pause_ns = 0L;
      pauses_us = [];
      lost = 0;
    }
  in
  (* ring -> (nesting depth, begin of the outermost pause) *)
  let open_pause = Hashtbl.create 8 in
  let runtime_begin ring ts phase =
    if is_pause phase then
      match Hashtbl.find_opt open_pause ring with
      | Some (d, b) when d > 0 -> Hashtbl.replace open_pause ring (d + 1, b)
      | _ -> Hashtbl.replace open_pause ring (1, Timestamp.to_int64 ts)
  in
  let runtime_end ring ts phase =
    (if s.active && ring = 0 then
       match phase with
       | EV_MINOR -> s.minors <- s.minors + 1
       | EV_MAJOR_GC_CYCLE_DOMAINS -> s.majors <- s.majors + 1
       | _ -> ());
    if is_pause phase then
      match Hashtbl.find_opt open_pause ring with
      | Some (1, b) ->
          Hashtbl.replace open_pause ring (0, 0L);
          if s.active then begin
            let d = Int64.sub (Timestamp.to_int64 ts) b in
            s.pauses_us <- (Int64.to_float d /. 1e3) :: s.pauses_us;
            if ring = 0 then s.main_pause_ns <- Int64.add s.main_pause_ns d
          end
      | Some (d, b) when d > 1 -> Hashtbl.replace open_pause ring (d - 1, b)
      | _ -> ()
  in
  let lost_events _ring k = if s.active then s.lost <- s.lost + k in
  let callbacks =
    Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  in
  let t = { cursor = create_cursor None; callbacks; totals = s } in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         if Mutex.try_lock lock then
           Fun.protect
             ~finally:(fun () -> Mutex.unlock lock)
             (fun () -> ignore (read_poll t.cursor t.callbacks None))));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = interval_s; it_value = interval_s });
  t

(* Stops the timer; the totals keep what was counted. *)
let stop (_ : t) =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore

let poll t =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () -> ignore (read_poll t.cursor t.callbacks None))

(* [measure t f] runs [f] with its GC events counted in [t.totals]. *)
let measure t f =
  poll t;
  t.totals.active <- true;
  let r = f () in
  poll t;
  t.totals.active <- false;
  r
