(* serve-shared and serve-cold: a [nocplan serve] process with default
   flags on a Unix-domain socket, driven first closed-loop (throughput)
   and then open-loop at a fixed rate (latency). *)

open Measure
module Serve = Nocplan_serve
module Json = Serve.Json

type workload = {
  name : string;
  bodies : seed:int -> string array;  (* the request mix, in send order *)
  warmup : string array -> string list;
      (* of the mix, the bodies sent once, unchecked, in set-up *)
  round : int;  (* requests per closed-loop round *)
  rate : float;  (* open-loop requests per second *)
}

(* Closed-loop window per connection, and the share of the measured
   time spent closed-loop; the rest is the open-loop latency phase. *)
let window = 4
let closed_share = 0.6

(* How long after its last send the open loop waits for replies; a
   request still unanswered then counts as timed out. *)
let reply_timeout = 10.0

let connections () = Domain.recommended_domain_count ()
let run_dir = ".perfbench-run"

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)

type server = {
  pid : int;
  path : string;
  trace_file : string option;
  mutable stopped : bool;
}

let started = ref 0

let start_server ~nocplan ~trace =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr started;
  let base = Printf.sprintf "%s/%d-%d" run_dir (Unix.getpid ()) !started in
  let path = base ^ ".sock" in
  let trace_file = if trace then Some (base ^ ".trace.json") else None in
  let args =
    [ nocplan; "serve"; "--socket"; path ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process nocplan (Array.of_list args) devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let deadline = now () +. 30.0 in
  let rec wait_ready () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "nocplan serve exited during start-up");
        if now () > deadline then failwith "nocplan serve did not start";
        Thread.delay 0.002;
        wait_ready ()
  in
  wait_ready ();
  { pid; path; trace_file; stopped = false }

let stop_server s =
  if not s.stopped then begin
  s.stopped <- true;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.005;
        reap ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  reap ();
  try Unix.unlink s.path with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let close c =
  (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  close_in_noerr c.ic

(* The request id of a response line, without parsing the payload:
   the envelope starts {"v": 1, "id": N, ... *)
let response_id line =
  let prefix = "{\"v\": 1, \"id\": " in
  let k = String.length prefix and n = String.length line in
  if n < k || String.sub line 0 k <> prefix then None
  else begin
    let stop = ref k in
    while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do incr stop done;
    int_of_string_opt (String.sub line k (!stop - k))
  end

let ask path body =
  let c = connect path in
  send c (Inputs.line ~id:0 body);
  let r = input_line c.ic in
  close c;
  r

(* ------------------------------------------------------------------ *)
(* Load phases                                                         *)

(* One timed request: its index in the mix, when it was due and sent,
   and the response line with its arrival time, if one came. *)
type sample = {
  index : int;
  due : float;
  sent : float;
  mutable reply : (float * string) option;
}

let body_of bodies i = bodies.(i mod Array.length bodies)

(* One closed-loop round on one connection: [window] requests
   outstanding while request indices below [stop] remain, taken in turn
   from [next], then every reply awaited.  Returns the samples. *)
let closed_round c ~bodies ~next ~stop =
  let pending = Hashtbl.create 16 and done_ = ref [] in
  let send_one () =
    let i = Atomic.fetch_and_add next 1 in
    if i < stop then begin
      let t = now () in
      Hashtbl.replace pending i { index = i; due = t; sent = t; reply = None };
      send c (Inputs.line ~id:i (body_of bodies i))
    end
  in
  (try
     for _ = 1 to window do send_one () done;
     while Hashtbl.length pending > 0 do
       let line = input_line c.ic in
       let t = now () in
       match response_id line with
       | Some id when Hashtbl.mem pending id ->
           let s = Hashtbl.find pending id in
           Hashtbl.remove pending id;
           s.reply <- Some (t, line);
           done_ := s :: !done_;
           send_one ()
       | _ -> ()
     done
   with End_of_file | Sys_error _ -> ());
  Hashtbl.fold (fun _ s acc -> s :: acc) pending !done_

(* Rounds of [round] requests, the connections sharing each round's
   [closed_round], until [duration] has gone; between rounds, with the
   server idle, the calibration loop is timed.  Every round sends the
   same requests (one whole mix round, or the whole pool), so the
   rounds time identical work.  Returns the samples, the wall
   milliseconds per completed request (lower quartile over rounds) and
   the next request index. *)
let closed_loop ~cal ~path ~bodies ~round ~first ~duration =
  let next = Atomic.make first in
  let conns = Array.init (connections ()) (fun _ -> connect path) in
  let t_end = now () +. duration in
  let samples = ref [] and per_request = ref [] in
  let rec loop () =
    let r0 = now () in
    let stop = Atomic.get next + round in
    let results = Array.make (Array.length conns) [] in
    let threads =
      Array.to_list
        (Array.mapi
           (fun k c ->
             Thread.create (fun () -> results.(k) <- closed_round c ~bodies ~next ~stop) ())
           conns)
    in
    List.iter Thread.join threads;
    Atomic.set next stop;
    let wall = now () -. r0 in
    let round = List.concat (Array.to_list results) in
    let completed = List.length (List.filter (fun s -> s.reply <> None) round) in
    samples := List.rev_append round !samples;
    per_request := (wall *. 1e3 /. float_of_int (max 1 completed)) :: !per_request;
    Calibration.sample cal;
    if now () < t_end then loop ()
  in
  loop ();
  Array.iter close conns;
  (* See [Measure.steady]. *)
  (!samples, steady !per_request, Atomic.get next)

(* Sends one request every [1 / rate] seconds for [duration],
   round-robin over the connections, never waiting for replies; the
   seeded mix decides which request goes when. *)
let open_loop ~path ~bodies ~first ~rate ~duration =
  let offsets =
    Array.init (int_of_float (duration *. rate)) (fun k -> float_of_int k /. rate)
  in
  let n = Array.length offsets in
  let nconn = connections () in
  let conns = Array.init nconn (fun _ -> connect path) in
  let samples = Array.make n None in
  let lock = Mutex.create () in
  let reader k =
    let expected = ref (List.length (List.filter (fun i -> i mod nconn = k) (List.init n Fun.id))) in
    try
      while !expected > 0 do
        let line = input_line conns.(k).ic in
        let t = now () in
        match response_id line with
        | Some id when id >= first && id < first + n ->
            Mutex.lock lock;
            (match samples.(id - first) with
            | Some s -> s.reply <- Some (t, line)
            | None -> ());
            Mutex.unlock lock;
            decr expected
        | _ -> ()
      done
    with End_of_file | Sys_error _ -> ()
  in
  let readers = List.init nconn (fun k -> Thread.create reader k) in
  let t0 = now () +. 0.01 in
  for k = 0 to n - 1 do
    let due = t0 +. offsets.(k) in
    let wait = due -. now () in
    if wait > 0.0 then Thread.delay wait;
    let i = first + k in
    Mutex.lock lock;
    samples.(k) <- Some { index = i; due; sent = now (); reply = None };
    Mutex.unlock lock;
    send conns.(k mod nconn) (Inputs.line ~id:i (body_of bodies i))
  done;
  let give_up = t0 +. duration +. reply_timeout in
  let all_done () =
    Array.for_all
      (function Some { reply = Some _; _ } -> true | _ -> false)
      samples
  in
  while (not (all_done ())) && now () < give_up do Thread.delay 0.01 done;
  Array.iter close conns;
  List.iter Thread.join readers;
  (List.filter_map Fun.id (Array.to_list samples), first + n)

(* ------------------------------------------------------------------ *)
(* Checking replies                                                    *)

let op_of_body body =
  match Json.parse ("{" ^ body) with
  | Ok j -> Option.value ~default:"" (Json.str_field "op" j)
  | Error _ -> ""

let result_payload line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
      match (Json.member "ok" j, Json.member "result" j) with
      | Some (Json.Bool true), Some r -> Some (j, r)
      | _ -> None)

(* Every distinct body answered by a fresh single-worker service, as a
   server that had seen nothing else would answer it. *)
let references bodies =
  let refs = Hashtbl.create 64 in
  Array.iter
    (fun body ->
      if not (Hashtbl.mem refs body) then begin
        let service = Serve.Service.create ~workers:1 () in
        let resp = Serve.Service.request service (Inputs.line ~id:0 body) in
        Serve.Service.shutdown service;
        Hashtbl.replace refs body
          (Option.map (fun (_, r) -> Json.to_string r) (result_payload resp))
      end)
    bodies;
  refs

type verdict = {
  attempted : int;
  failed : int;
  problems : string list;
  anneal_mismatch : int;
}

(* Error kinds that mean the server was too busy, not wrong: they count
   as failed operations but fail no check. *)
let load_errors = [ "overload"; "timeout" ]

let error_kind line =
  match Json.parse line with
  | Error _ -> "unreadable"
  | Ok j -> (
      match Json.member "error" j with
      | Some e -> Option.value ~default:"unknown" (Json.str_field "kind" e)
      | None -> "unknown")

(* Checks every sample's reply.  A missing reply is a timeout.  Every
   failed check, error, overload or timeout counts in [failed]; only
   overloads and timeouts leave [problems] untouched. *)
let check ~bodies ~refs samples =
  let failed = ref 0 and problems = ref [] and mismatch = ref 0 in
  List.iter
    (fun s ->
      let body = body_of bodies s.index in
      let op = op_of_body body in
      let mine = ref [] in
      let problem fmt = Printf.ksprintf (fun m -> mine := m :: !mine) fmt in
      let load_failure = ref false in
      (match s.reply with
      | None -> load_failure := true
      | Some (_, line) -> (
          match result_payload line with
          | None ->
              let kind = error_kind line in
              if List.mem kind load_errors then load_failure := true
              else problem "request %d (%s): %s error reply" s.index op kind
          | Some (_, result) -> (
              (match Json.member "valid" result with
              | Some (Json.Bool false) -> problem "request %d: invalid %s result" s.index op
              | _ -> ());
              let fresh =
                match Hashtbl.find_opt refs body with
                | Some (Some expected) -> Some (expected = Json.to_string result)
                | Some None | None -> None
              in
              if op = "anneal" then begin
                if fresh <> Some true then incr mismatch;
                match
                  (Json.int_field "makespan" result, Json.int_field "initial_makespan" result)
                with
                | Some m, Some i when m > 0 && m <= i -> ()
                | _ -> problem "request %d: malformed anneal result" s.index
              end
              else
                match fresh with
                | Some true -> ()
                | Some false -> problem "request %d (%s): result differs from a fresh server's" s.index op
                | None -> problem "request %d (%s): no reference answer" s.index op)));
      if !load_failure || !mine <> [] then incr failed;
      problems := !mine @ !problems)
    samples;
  {
    attempted = List.length samples;
    failed = !failed;
    problems = List.rev !problems;
    anneal_mismatch = !mismatch;
  }

(* ------------------------------------------------------------------ *)
(* Server metrics                                                      *)

let metrics path =
  let line = ask path "\"op\": \"metrics\"}" in
  match result_payload line with
  | Some (_, r) -> r
  | None -> failwith ("metrics op failed: " ^ line)

let metric_int name m = Option.value ~default:0 (Json.int_field name m)

let metric_sum name m =
  match Json.member name m with
  | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (_, v) -> match v with Json.Int n -> acc + n | _ -> acc)
        0 fields
  | _ -> 0

let metric_at name key m =
  match Json.member name m with
  | Some o -> Option.value ~default:0 (Json.int_field key o)
  | None -> 0

(* Ratios over the traffic between two metrics snapshots. *)
let metric_layers before after =
  let d f = f after - f before in
  let hits_ratio hits misses =
    ratio (d (metric_int hits)) (d (metric_int hits) + d (metric_int misses))
  in
  let served = d (metric_int "served") in
  [
    ("serve.table_cache_hit_ratio", hits_ratio "cache_hits" "cache_misses");
    ("serve.shared_cache_hit_ratio", hits_ratio "shared_cache_hits" "shared_cache_misses");
    ("serve.warm_hit_ratio", hits_ratio "warm_hits" "warm_misses");
    ("serve.coalesced_ratio", ratio (d (metric_sum "coalesced")) served);
    ("serve.batched_ratio", ratio (d (metric_int "batched")) served);
    ("serve.rejected", float_of_int (d (metric_int "rejected")));
    ( "core.race_binpack_win_rate",
      ratio (d (metric_at "backend_wins" "binpack")) (d (metric_at "backend_solves" "binpack")) );
  ]

(* ------------------------------------------------------------------ *)
(* One measured pass: closed loop, then open loop                      *)

type pass = {
  samples : sample list;  (* closed- and open-loop, for checking *)
  open_samples : sample list;
  ms_per_request : float;
  late_ms : float;
  before : Json.t;
  after : Json.t;
}

let measure_pass ~cal ~server ~w ~bodies ~seconds =
  let before = metrics server.path in
  let closed_duration = seconds *. closed_share in
  let closed, ms_per_request, next =
    closed_loop ~cal ~path:server.path ~bodies ~round:w.round ~first:0
      ~duration:closed_duration
  in
  let opened, _ =
    open_loop ~path:server.path ~bodies ~first:next ~rate:w.rate
      ~duration:(seconds -. closed_duration)
  in
  let after = metrics server.path in
  {
    samples = closed @ opened;
    open_samples = opened;
    ms_per_request;
    late_ms = mean (List.map (fun s -> (s.sent -. s.due) *. 1e3) opened);
    before;
    after;
  }

(* Open-loop latency from when each request was due; a failed or
   missing reply counts as the reply timeout. *)
let latencies samples =
  List.map
    (fun s ->
      match s.reply with
      | Some (t, line) when result_payload line <> None -> (t -. s.due) *. 1e3
      | _ -> reply_timeout *. 1e3)
    samples

(* Client latency minus the server's own [elapsed_ms]: transport and
   I/O outside the request handler. *)
let outside_ms samples =
  median
    (List.filter_map
       (fun s ->
         match s.reply with
         | Some (t, line) -> (
             match Json.parse line with
             | Ok j ->
                 Option.map
                   (fun e -> ((t -. s.sent) *. 1e3) -. e)
                   (Json.float_field "elapsed_ms" j)
             | Error _ -> None)
         | None -> None)
       samples)

let trace_layers ~trace_file ~requests ~bodies =
  let text = In_channel.with_open_bin trace_file In_channel.input_all in
  (try Sys.remove trace_file with Sys_error _ -> ());
  let events =
    match Json.parse text with
    | Ok j -> (
        match Json.member "traceEvents" j with
        | Some (Json.List evs) -> evs
        | _ -> failwith "trace file without traceEvents")
    | Error msg -> failwith ("unreadable server trace: " ^ msg)
  in
  let value = function
    | Json.Bool b -> Trace.Bool b
    | Json.Int i -> Trace.Int i
    | Json.Float f -> Trace.Float f
    | Json.String s -> Trace.String s
    | _ -> Trace.String ""
  in
  let spans = Spans.create () in
  Spans.add spans
    (List.filter_map
       (fun ev ->
         let phase =
           match Json.str_field "ph" ev with
           | Some "B" -> Some Trace.Begin
           | Some "E" -> Some Trace.End
           | Some "i" | Some "I" -> Some Trace.Instant
           | _ -> None
         in
         match (phase, Json.str_field "name" ev, Json.float_field "ts" ev) with
         | Some phase, Some name, Some ts ->
             let attrs =
               match Json.member "args" ev with
               | Some (Json.Obj kv) -> List.map (fun (k, v) -> (k, value v)) kv
               | _ -> []
             in
             Some
               {
                 Trace.seq = 0;
                 name;
                 phase;
                 ts;
                 tid = Option.value ~default:0 (Json.int_field "tid" ev);
                 attrs;
               }
         | _ -> None)
       events);
  let requests_n = Spans.count spans "serve.request" in
  let mean_ms key = per (Spans.total_ms spans key) (Spans.count spans key) in
  (* Parse and system build from outside: the benchmark's own calls on
     the lines this pass sent. *)
  let lines = List.map (fun s -> Inputs.line ~id:s.index (body_of bodies s.index)) requests in
  let parsed, parse_s =
    timed (fun () -> List.map Serve.Protocol.parse_request lines)
  in
  let build_s =
    sum
      (List.map
         (function
           | Ok { Serve.Protocol.spec = Some spec; _ } ->
               snd (timed (fun () -> ignore (Serve.Sysbuild.build spec)))
           | _ -> 0.0)
         parsed)
  in
  let n = List.length lines in
  Spans.core_layers spans ~systems:requests_n
  @ [
      ("serve.parse_us", per (parse_s *. 1e6) n);
      ("serve.build_ms", per (build_s *. 1e3) n);
      ("serve.queue_wait_ms", per (Spans.queue_wait_ms spans) requests_n);
      ("serve.table_ms", mean_ms "serve.table");
    ]
  @ List.map
      (fun op -> ("serve.solve_ms." ^ op, mean_ms ("serve.solve." ^ op)))
      [ "plan"; "validate"; "sweep"; "anneal"; "replan"; "preempt" ]


(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* Open-loop rates are about a quarter and a third of the closed-loop
   capacity on two cores: busy enough that the client and server
   threads rarely sleep between requests (waking an idle virtual CPU
   costs more, and less predictably, than the request itself), idle
   enough that queueing stays off the steep part of its curve. *)

let shared =
  {
    name = "serve-shared";
    bodies = (fun ~seed -> Inputs.shared_bodies ~seed ~rounds:40);
    (* One round of the mix, so that the caches hold what the
       measured rounds repeat. *)
    warmup =
      (fun bodies -> Array.to_list (Array.sub bodies 0 (List.length Inputs.shared_round)));
    round = List.length Inputs.shared_round;
    rate = 110.0;
  }

let cold =
  {
    name = "serve-cold";
    bodies = (fun ~seed -> Inputs.cold_bodies ~seed ~count:Inputs.cold_pool);
    warmup = (fun _ -> []);
    round = Inputs.cold_pool;
    rate = 180.0;
  }

let start_warm ~nocplan w ~bodies ~trace =
  let server = start_server ~nocplan ~trace in
  List.iter (fun b -> ignore (ask server.path b)) (w.warmup bodies);
  server

(* Set-up is generating the mix and its fresh-server reference answers
   (once: the same inputs give the same answers), then starting and
   warming the server, three times, of which the median counts. *)
let run ~nocplan w ~seed ~seconds ~trace =
  let (bodies, refs), inputs_s =
    timed (fun () ->
        let bodies = w.bodies ~seed in
        (bodies, references bodies))
  in
  let starts =
    List.init 3 (fun k ->
        let server, s = timed (fun () -> start_warm ~nocplan w ~bodies ~trace:false) in
        if k < 2 then stop_server server;
        (server, s))
  in
  let setup_s = inputs_s +. median (List.map snd starts) in
  let server = fst (List.nth starts 2) in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let digest =
    Inputs.lines_digest (Array.sub bodies 0 (min Inputs.lines_recorded (Array.length bodies)))
  in
  let digest_problems =
    match Inputs.recorded_digest ~workload:w.name ~seed with
    | Some d when d <> digest -> [ Printf.sprintf "request-line digest %s, recorded %s" digest d ]
    | Some _ | None -> []
  in
  let budget = if trace then seconds /. 2.0 else seconds in
  let cal = Calibration.create () in
  let p = measure_pass ~cal ~server ~w ~bodies ~seconds:budget in
  let ms_per_request = Calibration.scale cal p.ms_per_request in
  stop_server server;
  let v = check ~bodies ~refs p.samples in
  let traced_layers, traced_problems =
    if not trace then ([], [])
    else begin
      let ts = start_warm ~nocplan w ~bodies ~trace:true in
      let tcal = Calibration.create () in
      let tp =
        Fun.protect ~finally:(fun () -> stop_server ts) @@ fun () ->
        measure_pass ~cal:tcal ~server:ts ~w ~bodies ~seconds:budget
      in
      let tv = check ~bodies ~refs tp.samples in
      let trace_file = Option.get ts.trace_file in
      ( trace_layers ~trace_file ~requests:tp.samples ~bodies
        @ [
            ( "obs.trace_overhead_pct",
              100.0
              *. ((Calibration.scale tcal tp.ms_per_request /. ms_per_request) -. 1.0) );
          ],
        tv.problems )
    end
  in
  let problems = digest_problems @ v.problems @ traced_problems in
  let lat = latencies p.open_samples in
  {
    correct = problems = [];
    attempted = v.attempted;
    failed = v.failed;
    problems;
    end_to_end =
      [
        ("setup_s", Calibration.scale cal setup_s);
        ("success_rate", 1.0 -. ratio v.failed v.attempted);
        ("ms_per_system", ms_per_request);
      ];
    layers =
      [
        ("latency_p50_ms", windowed 0.5 lat);
        ("latency_p90_ms", windowed 0.9 lat);
        ("host.calibration_ms", Calibration.ms cal);
      ]
      @ metric_layers p.before p.after
      @ [
          ("serve.outside_ms", outside_ms p.open_samples);
          ("gen.late_ms", p.late_ms);
          ("serve.anneal_history_mismatch", float_of_int v.anneal_mismatch);
        ]
      @ traced_layers;
  }
