(* Property: every serve answer is a pure function of its request.  A
   service that has already served a random history of requests, then
   takes a burst of generated requests from concurrent submitters on
   two workers (shared evaluation caches and coalescing on, as
   deployed), must answer each request — history included — exactly as
   a fresh one-worker service that has seen nothing else would.  Only
   the envelope fields describing how a request was served
   (elapsed_ms, cache, coalesced) may differ; the result or error
   payload, anneal trajectories included, must be byte-identical. *)

module Serve = Nocplan_serve
module Itc02 = Nocplan_itc02
module Json = Serve.Json

open QCheck2.Gen

type shape = {
  op : string;
  reuse : int;
  policy : string;
  seed : int;
  iterations : int;
  power_pct : int option;
}

let shape_gen =
  let* op =
    oneofl [ "plan"; "validate"; "anneal"; "sweep"; "preempt"; "replan" ]
  in
  let* reuse = int_range 1 2 in
  let* policy = oneofl [ "greedy"; "lookahead" ] in
  let* seed = int_range 0 3 in
  let* iterations = int_range 5 25 in
  let* power_pct = oneofl [ None; Some 100 ] in
  return { op; reuse; policy; seed; iterations; power_pct }

(* One generated SoC shared by the whole case (so history and burst
   hit the same instances), served inline so the case never depends
   on builtins.  The history runs first, one request at a time; the
   burst follows all at once. *)
let case_gen =
  let* soc = Generators.soc_gen in
  let* history = list_size (int_range 0 6) shape_gen in
  let* burst = list_size (int_range 4 8) shape_gen in
  return (Itc02.Printer.to_string soc, history, burst)

(* The drawn integers double as each op's own parameters: sweep goes
   up to [reuse], preempt allows [seed + 1] sessions, and replan fails
   the (always present) link 0,0>1,0 at [iterations] thousand cycles. *)
let request_line ~soc_text i s =
  let extras =
    (match s.power_pct with
    | Some p -> Printf.sprintf ", \"power_pct\": %d" p
    | None -> "")
    ^
    match s.op with
    | "anneal" ->
        Printf.sprintf ", \"seed\": %d, \"iterations\": %d" s.seed
          s.iterations
    | "sweep" -> Printf.sprintf ", \"max_reuse\": %d" s.reuse
    | "preempt" -> Printf.sprintf ", \"max_sessions\": %d" (s.seed + 1)
    | "replan" ->
        Printf.sprintf ", \"at\": %d, \"failed_links\": [\"0,0>1,0\"]"
          (s.iterations * 1000)
    | _ -> Printf.sprintf ", \"seed\": %d" s.seed
  in
  Printf.sprintf
    "{\"id\": %d, \"op\": \"%s\", \"soc\": %s, \"leons\": 2, \"reuse\": %d, \
     \"policy\": \"%s\"%s}"
    i s.op
    (Json.to_string (Json.String soc_text))
    s.reuse s.policy extras

(* The response with the serving-history fields dropped: everything
   left must depend on the request alone. *)
let answer line =
  match Json.parse line with
  | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj
           (List.filter
              (fun (k, _) ->
                not (List.mem k [ "elapsed_ms"; "cache"; "coalesced" ]))
              fields))
  | Ok _ | Error _ -> Printf.sprintf "unparseable %s" line

(* The reference runs with no shared evaluation cache, so the served
   answers are checked against the from-scratch engine. *)
let fresh_answer line =
  let service = Serve.Service.create ~workers:1 ~shared_capacity:0 () in
  Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
  Serve.Service.request service line

let prop (soc_text, history, burst) =
  let h = List.length history in
  let history_lines = List.mapi (request_line ~soc_text) history in
  let burst_lines =
    List.mapi (fun i s -> request_line ~soc_text (h + i) s) burst
  in
  let served =
    let service =
      Serve.Service.create ~workers:2
        ~queue_capacity:(2 * List.length burst)
        ()
    in
    Fun.protect ~finally:(fun () -> Serve.Service.shutdown service) @@ fun () ->
    let before = List.map (Serve.Service.request service) history_lines in
    let responses = Array.make (List.length burst_lines) "" in
    let submit (i, line) =
      responses.(i) <- Serve.Service.request service line
    in
    let threads =
      List.mapi (fun i line -> Thread.create submit (i, line)) burst_lines
    in
    List.iter Thread.join threads;
    before @ Array.to_list responses
  in
  List.iteri
    (fun i (line, response) ->
      let expected = answer (fresh_answer line) in
      if answer response <> expected then
        QCheck2.Test.fail_reportf
          "request %d (after %d history requests) depends on what the \
           server served before it@.fresh:  %s@.served: %s"
          i h expected (answer response))
    (List.combine (history_lines @ burst_lines) served);
  true

let suite =
  [
    Util.qcheck ~count:8 "every answer matches a fresh one-worker service"
      case_gen prop;
  ]
