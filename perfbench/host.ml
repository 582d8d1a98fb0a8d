(* Host record, filesystem helpers and the server child processes. *)

let now = Trace.now

(* ------------------------------------------------------------------ *)
(* Host record *)

let nproc = Domain.recommended_domain_count ()

let git_rev () =
  let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
  let rev = try String.trim (input_line ic) with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  if rev = "" then "none (not a git checkout)" else rev

(* Longest mount point containing [path], from /proc/self/mounts. *)
let fs_type path =
  let path = try Unix.realpath path with Unix.Unix_error _ -> path in
  let is_prefix mp =
    mp = "/"
    || String.equal path mp
    || String.starts_with ~prefix:(mp ^ "/") path
  in
  match In_channel.with_open_text "/proc/self/mounts" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
      String.split_on_char '\n' text
      |> List.fold_left
           (fun ((best_len, _) as best) line ->
             match String.split_on_char ' ' line with
             | _ :: mp :: fstype :: _ when is_prefix mp && String.length mp > best_len ->
                 (String.length mp, fstype)
             | _ -> best)
           (-1, "unknown")
      |> snd

(* ------------------------------------------------------------------ *)
(* Files *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* A run's data directory and its siblings named [<dir>.<suffix>]
   (recovery copies, snapshot and WAL scratch files). *)
let remove_run_files dir =
  let parent = Filename.dirname dir and base = Filename.basename dir in
  Array.iter
    (fun f ->
      if f = base || String.starts_with ~prefix:(base ^ ".") f then
        rm_rf (Filename.concat parent f))
    (try Sys.readdir parent with Sys_error _ -> [||])

(* The copy is fsynced file by file, so that writing it back does not
   overlap the timed recovery that follows. *)
let rec copy_tree src dst =
  match (Unix.stat src).Unix.st_kind with
  | Unix.S_DIR ->
      Unix.mkdir dst 0o755;
      Array.iter
        (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
        (Sys.readdir src)
  | _ ->
      let data = In_channel.with_open_bin src In_channel.input_all in
      let fd = Unix.openfile dst [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore (Unix.write_substring fd data 0 (String.length data) : int);
          Unix.fsync fd)

let rec tree_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + tree_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

(* ------------------------------------------------------------------ *)
(* Server child processes *)

type server = { pid : int; port : int; dir : string; announce : in_channel }

let children = ref []

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let kill_children () = List.iter kill_pid !children

(* Every child is SIGKILLed and reaped when the benchmark exits, however
   it exits. *)
let () = at_exit kill_children

(* Start `sqlledger serve` on an ephemeral port and read the port from its
   announcement line. *)
let spawn_server ~bin ~dir extra =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [ bin; "serve"; "--dir"; dir; "--port"; "0"; "--idle-timeout"; "0" ] @ extra
  in
  let pid = Unix.create_process bin (Array.of_list argv) Unix.stdin w Unix.stderr in
  children := pid :: !children;
  Unix.close w;
  let announce = Unix.in_channel_of_descr r in
  let line =
    try input_line announce
    with End_of_file -> failwith "sqlledger serve exited before announcing its port"
  in
  let port =
    match String.rindex_opt line ':' with
    | None -> failwith ("cannot parse the port from: " ^ line)
    | Some i ->
        let j = ref (i + 1) in
        while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
          incr j
        done;
        int_of_string (String.sub line (i + 1) (!j - i - 1))
  in
  { pid; port; dir; announce }

let kill_server s =
  kill_pid s.pid;
  close_in_noerr s.announce

(* Peak resident set of a live process, in MiB (VmHWM). *)
let peak_rss_mb pid =
  let status =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  in
  match
    List.find_opt
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' status)
  with
  | None -> failwith "VmHWM missing from /proc status"
  | Some line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
