(* The serve output check: a reply that is not ok fails the check
   unless the server was only overloaded or out of time; a result that
   differs from the fresh answer fails it too.  Every one of these
   counts as a failed operation. *)

open Perfbench
module Json = Nocplan_serve.Json
module Protocol = Nocplan_serve.Protocol

let body = "\"op\": \"plan\", \"system\": \"d695_leon\"}"
let result = Json.Obj [ ("makespan", Json.Int 620313) ]

let ok_line r =
  String.concat ""
    (Protocol.ok_response ~id:(Json.Int 0) ~op:Protocol.Plan ~cache:`Miss
       ~elapsed_ms:1.0 r)

let error_line kind = Protocol.error_response ~id:(Json.Int 0) kind "refused"

let verdict reply =
  let refs = Hashtbl.create 1 in
  Hashtbl.replace refs body (Some (Json.to_string result));
  Serve_wl.check ~bodies:[| body |] ~refs
    [
      {
        Serve_wl.index = 0;
        due = 0.0;
        sent = 0.0;
        reply = Option.map (fun line -> (0.0, line)) reply;
      };
    ]

let cases =
  [
    ("matching result", Some (ok_line result), 0, false);
    ( "different result",
      Some (ok_line (Json.Obj [ ("makespan", Json.Int 1) ])),
      1,
      true );
    ("internal error", Some (error_line Protocol.Internal), 1, true);
    ("unschedulable", Some (error_line Protocol.Unschedulable), 1, true);
    ("parse error", Some (error_line Protocol.Parse), 1, true);
    ("unreadable reply", Some "not json", 1, true);
    ("overload", Some (error_line Protocol.Overload), 1, false);
    ("timeout", Some (error_line Protocol.Timeout), 1, false);
    ("no reply", None, 1, false);
  ]

let () =
  let bad =
    List.filter
      (fun (name, reply, failed, problem) ->
        let v = verdict reply in
        let ok = v.Serve_wl.failed = failed && (v.Serve_wl.problems <> []) = problem in
        if not ok then
          Printf.eprintf "%s: failed %d (want %d), problems [%s] (want %s)\n" name
            v.Serve_wl.failed failed
            (String.concat "; " v.Serve_wl.problems)
            (if problem then "some" else "none");
        not ok)
      cases
  in
  if bad <> [] then exit 1
