(* Timing, sample statistics, span aggregation and the result record
   every workload returns. *)

module Trace = Nocplan_obs.Trace

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated so far by the calling domain (minor + direct major
   allocations, without double-counting promotions). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Nearest-rank quantile; [nan] on an empty sample. *)
let quantile q samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  end

let median samples = quantile 0.5 samples

(* The throughput statistic over a run's windows, passes or chunks:
   their lower quartile.  A shared host alternates between a fast state
   and one about a quarter slower, for seconds at a time; the median
   flips between the two whenever the run is about half in each, while
   the lower quartile holds the fast state's value until three quarters
   of the run are slow. *)
let steady samples = quantile 0.25 samples

(* ------------------------------------------------------------------ *)
(* Host calibration                                                    *)

(* A shared virtual machine changes speed by a fifth or more, over
   seconds to minutes, for every program on it alike.  A fixed loop,
   timed between units of a workload's own work all through a run,
   measures the host's speed over that run; the end-to-end times are
   scaled by [reference_ms] over the loop's lower quartile, to what
   they would read on the host at its reference speed.  The loop
   allocates only blocks that die young, so the size of the program's
   heap does not change its time. *)
module Calibration = struct
  (* The loop's time at the reference speed: its usual lower quartile
     on a 2-vCPU Intel Xeon virtual machine, OCaml 5.1.1. *)
  let reference_ms = 8.0

  (* Seconds of work between samples. *)
  let interval = 0.25

  let loop () =
    let acc = ref 0 in
    for r = 1 to 300 do
      let h = Hashtbl.create 64 and l = ref [] in
      for i = 0 to 199 do
        Hashtbl.replace h (((i * 7919) + r) mod 1009) (float_of_int i);
        l := float_of_int (((i * 31) + r) mod 1000) :: !l
      done;
      acc := !acc + Hashtbl.length h + List.length (List.sort compare !l)
    done;
    ignore (Sys.opaque_identity !acc)

  type t = { mutable samples : float list; mutable last : float }

  let sample t =
    let (), s = timed loop in
    t.samples <- (s *. 1e3) :: t.samples;
    t.last <- now ()

  (* Takes a first sample at once. *)
  let create () =
    let t = { samples = []; last = 0.0 } in
    sample t;
    t

  (* Samples when [interval] seconds of work have gone since the last
     sample. *)
  let tick t = if now () -. t.last >= interval then sample t

  (* The loop's time over the run, in ms. *)
  let ms t = steady t.samples

  (* What a time measured over the run reads at the reference speed. *)
  let scale t x = x *. reference_ms /. ms t
end

(* Samples per group of [windowed]: the p90 of a group has fifteen
   samples beyond it. *)
let group = 150

(* Quantile [q] of time-ordered latency samples, as the median over
   consecutive groups of [group] samples of each group's quantile: one
   slow stretch of the host moves a few groups, not the whole run's
   tail. *)
let windowed q samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  let groups = max 1 (n / group) in
  median
    (List.init groups (fun g ->
         let len = if g = groups - 1 then n - (g * group) else group in
         quantile q (Array.to_list (Array.sub a (g * group) len))))
let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | l -> sum l /. float_of_int (List.length l)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per x n = if n = 0 then 0.0 else x /. float_of_int n

(* What one run of a workload produced.  [problems] are failed output
   checks (any makes the run incorrect); [failed] counts operations
   that failed or were refused, [attempted] all timed operations. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;
  end_to_end : (string * float) list;
  layers : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Span aggregation                                                    *)

(* Sums trace events by name: per span name the count, the total
   duration and the self time (duration minus the part covered by
   child spans on the same thread); per instant name the count; and
   the [queue_wait_ms] attributes serve.request spans carry.  A span
   carrying an ["op"] or ["backend"] string attribute is also counted
   under ["<name>.<value>"]. *)
module Spans = struct
  type stat = { mutable count : int; mutable total_us : float; mutable self_us : float }

  type frame = {
    keys : string list;
    start : float;
    mutable child_us : float;
  }

  type t = {
    stats : (string, stat) Hashtbl.t;
    instants : (string, int) Hashtbl.t;
    mutable queue_wait_ms : float;
    stacks : (int, frame list) Hashtbl.t;
    lock : Mutex.t;
  }

  let create () =
    {
      stats = Hashtbl.create 32;
      instants = Hashtbl.create 32;
      queue_wait_ms = 0.0;
      stacks = Hashtbl.create 4;
      lock = Mutex.create ();
    }

  let stat t key =
    match Hashtbl.find_opt t.stats key with
    | Some s -> s
    | None ->
        let s = { count = 0; total_us = 0.0; self_us = 0.0 } in
        Hashtbl.replace t.stats key s;
        s

  let keys (ev : Trace.event) =
    let qualified attr =
      match Trace.attr_string ev attr with
      | Some v -> [ ev.Trace.name ^ "." ^ v ]
      | None -> []
    in
    (ev.Trace.name :: qualified "op") @ qualified "backend"

  let add_unlocked t (ev : Trace.event) =
    let stack =
      Option.value ~default:[] (Hashtbl.find_opt t.stacks ev.Trace.tid)
    in
    match ev.Trace.phase with
    | Trace.Begin ->
        (match Trace.attr ev "queue_wait_ms" with
        | Some (Trace.Float ms) -> t.queue_wait_ms <- t.queue_wait_ms +. ms
        | Some (Trace.Int ms) -> t.queue_wait_ms <- t.queue_wait_ms +. float_of_int ms
        | _ -> ());
        Hashtbl.replace t.stacks ev.Trace.tid
          ({ keys = keys ev; start = ev.Trace.ts; child_us = 0.0 } :: stack)
    | Trace.End -> (
        match stack with
        | [] -> ()
        | frame :: rest ->
            let dur = ev.Trace.ts -. frame.start in
            List.iter
              (fun key ->
                let s = stat t key in
                s.count <- s.count + 1;
                s.total_us <- s.total_us +. dur;
                s.self_us <- s.self_us +. dur -. frame.child_us)
              frame.keys;
            (match rest with
            | parent :: _ -> parent.child_us <- parent.child_us +. dur
            | [] -> ());
            Hashtbl.replace t.stacks ev.Trace.tid rest)
    | Trace.Instant ->
        Hashtbl.replace t.instants ev.Trace.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.instants ev.Trace.name))
    | Trace.Counter -> ()

  let add t events =
    Mutex.lock t.lock;
    List.iter (add_unlocked t) events;
    Mutex.unlock t.lock

  let count t key =
    match Hashtbl.find_opt t.stats key with Some s -> s.count | None -> 0

  let self_ms t key =
    match Hashtbl.find_opt t.stats key with
    | Some s -> s.self_us /. 1e3
    | None -> 0.0

  let total_ms t key =
    match Hashtbl.find_opt t.stats key with
    | Some s -> s.total_us /. 1e3
    | None -> 0.0

  let instants t name =
    Option.value ~default:0 (Hashtbl.find_opt t.instants name)

  let queue_wait_ms t = t.queue_wait_ms

  (* Per-layer rows shared by every in-process and server trace,
     normalised per system (or request) where the name says so. *)
  let core_layers t ~systems =
    let per_sys x = per x systems in
    let hit = instants t "eval.hit" in
    [
      ("core.access_table_builds", per_sys (float_of_int (count t "access.table")));
      ("core.access_table_ms", per_sys (self_ms t "access.table"));
      ("fault.replans", per_sys (float_of_int (count t "fault.replan")));
      ("fault.replan_ms", per_sys (self_ms t "fault.replan"));
      ("fault.detour_ms", per_sys (self_ms t "fault.detour"));
      ("core.scheduler_runs", per_sys (float_of_int (count t "scheduler.run")));
      ("core.scheduler_run_ms", per_sys (self_ms t "scheduler.run"));
      ("core.backend_greedy_ms", per_sys (total_ms t "backend.solve.greedy"));
      ("core.backend_binpack_ms", per_sys (total_ms t "backend.solve.binpack"));
      ( "core.eval_hit_ratio",
        ratio hit (hit + instants t "eval.resume" + instants t "eval.full") );
    ]

  (* Run [f] with an installed wall-clock collector streaming into [t];
     the collector is removed afterwards. *)
  let collect t f =
    let collector =
      Trace.collector
        ~clock:(fun () -> now () *. 1e6)
        ~capacity:65536 ~on_flush:(add t) ()
    in
    Trace.install collector;
    Fun.protect
      ~finally:(fun () ->
        Trace.uninstall ();
        Trace.flush collector)
      f
end
