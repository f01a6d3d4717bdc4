module Log = (val Logs.src_log Service.log_src)

(* ------------------------------------------------------------------ *)
(* Stdio transport                                                    *)

let serve_stdio service =
  let out_mutex = Mutex.create () in
  let respond chunks =
    Mutex.lock out_mutex;
    List.iter print_string chunks;
    print_newline ();
    flush stdout;
    Mutex.unlock out_mutex
  in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then Service.handle_line service line respond
     done
   with End_of_file -> ());
  Service.drain service

(* ------------------------------------------------------------------ *)
(* Socket transports: Unix-domain and TCP                             *)

(* Pending-connection queue per listening socket.  A burst of clients
   connecting at once must not overflow it: an overflowed SYN is
   dropped and retried only after the kernel's initial retransmission
   timeout (1 s).  The kernel clamps the value to [somaxconn]. *)
let listen_backlog = 4096

type listener = {
  fd : Unix.file_descr;
  kind : [ `Unix of string | `Tcp of Unix.sockaddr ];
  read_only : bool;
  accept_thread : Thread.t;
  stopping : bool Atomic.t;
  closed : bool Atomic.t;
}

let handle_connection service ~read_only fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let out_mutex = Mutex.create () in
  let closed = Atomic.make false in
  let respond chunks =
    Mutex.lock out_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_mutex)
      (fun () ->
        if not (Atomic.get closed) then begin
          try
            List.iter (output_string oc) chunks;
            output_char oc '\n';
            flush oc
          with Sys_error _ | Unix.Unix_error _ ->
            (* Client went away; drop this and subsequent responses. *)
            Atomic.set closed true
        end)
  in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         Service.handle_line ~read_only service line respond
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  (* Give in-flight jobs their chance to respond before the channel
     dies; the respond closure swallows write failures either way. *)
  Service.drain service;
  Atomic.set closed true;
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop service ~read_only ~fd:listen_fd ~stopping () =
  let rec loop () =
    match Unix.accept listen_fd with
    | fd, _ ->
        if Atomic.get stopping then (
          (try Unix.close fd with Unix.Unix_error _ -> ());
          loop ())
        else begin
          Log.debug (fun m -> m "accepted connection");
          ignore (Thread.create (handle_connection service ~read_only) fd);
          loop ()
        end
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (e, _, _) ->
        if not (Atomic.get stopping) then
          Log.err (fun m -> m "accept failed: %s" (Unix.error_message e))
  in
  loop ()

let ignore_sigpipe () =
  try Sys.signal Sys.sigpipe Sys.Signal_ignore |> ignore
  with Invalid_argument _ -> ()

let spawn_listener service ~read_only ~fd ~kind =
  let stopping = Atomic.make false in
  let accept_thread =
    Thread.create (accept_loop service ~read_only ~fd ~stopping) ()
  in
  { fd; kind; read_only; accept_thread; stopping; closed = Atomic.make false }

let listen ?(read_only = false) service ~path =
  ignore_sigpipe ();
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind fd (ADDR_UNIX path);
     Unix.listen fd listen_backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Log.info (fun m ->
      m "listening on %s%s" path (if read_only then " (read-only)" else ""));
  spawn_listener service ~read_only ~fd ~kind:(`Unix path)

let listen_tcp ?(read_only = false) service ~host ~port =
  ignore_sigpipe ();
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ ->
      invalid_arg (Printf.sprintf "Server.listen_tcp: bad address %S" host)
  in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (ADDR_INET (addr, port));
     Unix.listen fd listen_backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (* Re-read the bound address: port 0 asks the kernel to pick one. *)
  let bound = Unix.getsockname fd in
  (match bound with
  | Unix.ADDR_INET (a, p) ->
      Log.info (fun m ->
          m "listening on %s:%d%s"
            (Unix.string_of_inet_addr a)
            p
            (if read_only then " (read-only)" else ""))
  | _ -> ());
  spawn_listener service ~read_only ~fd ~kind:(`Tcp bound)

let port listener =
  match listener.kind with
  | `Tcp (Unix.ADDR_INET (_, p)) -> Some p
  | _ -> None

let read_only listener = listener.read_only

let stop listener =
  if not (Atomic.exchange listener.stopping true) then begin
    (* Wake the blocked accept with [shutdown] on the listening
       socket: the sleeping accept fails immediately (EINVAL on
       Linux), which the loop treats as exit.  Closing the fd here
       instead would be a race — [close] does not wake a thread
       already parked in accept, and the freed fd number could be
       reused by a concurrent thread before the loop's next accept
       call.  The fd is closed in [wait], after the loop has exited.
       A throwaway connection doubles as the waker on platforms where
       shutting down a listening socket does not fail its accept. *)
    (try Unix.shutdown listener.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (match listener.kind with
    | `Unix path ->
        (try
           let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
           (try Unix.connect fd (ADDR_UNIX path)
            with Unix.Unix_error _ -> ());
           Unix.close fd
         with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
        Log.info (fun m -> m "listener on %s stopped" path)
    | `Tcp bound ->
        (try
           let fd = Unix.socket PF_INET SOCK_STREAM 0 in
           let target =
             (* A wildcard bind is reachable through loopback. *)
             match bound with
             | Unix.ADDR_INET (a, p) when a = Unix.inet_addr_any ->
                 Unix.ADDR_INET (Unix.inet_addr_loopback, p)
             | other -> other
           in
           (try Unix.connect fd target with Unix.Unix_error _ -> ());
           Unix.close fd
         with Unix.Unix_error _ -> ());
        Log.info (fun m -> m "tcp listener stopped"))
  end

let wait listener =
  Thread.join listener.accept_thread;
  if not (Atomic.exchange listener.closed true) then
    try Unix.close listener.fd with Unix.Unix_error _ -> ()
