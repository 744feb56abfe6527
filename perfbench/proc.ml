(* Host-side process accounting from /proc (Linux): CPU seconds and
   peak resident set of this process or of a child, by pid. *)

(* Clock ticks per second of /proc/PID/stat's utime and stime
   (USER_HZ, 100 on every Linux ABI this runs on). *)
let clk_tck = 100.0

let self_cpu_s () : float =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read (file : string) : string option =
  try Some (In_channel.with_open_bin file In_channel.input_all) with Sys_error _ -> None

(* utime + stime of [pid], in seconds.  Fields are counted after the
   parenthesised command name, which may itself hold spaces. *)
let cpu_s (pid : int) : float option =
  match read (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i -> (
      let rest = String.sub s (i + 2) (String.length s - i - 2) in
      match String.split_on_char ' ' rest with
      | fields when List.length fields > 13 ->
        (* state is field 3 of stat; utime and stime are 14 and 15 *)
        let f n = float_of_string (List.nth fields (n - 3)) in
        Some ((f 14 +. f 15) /. clk_tck)
      | _ -> None))

(* Peak resident set (VmHWM in /proc/PID/status), in MB. *)
let peak_rss_mb (pid : [ `Self | `Pid of int ]) : float option =
  let file =
    match pid with `Self -> "/proc/self/status" | `Pid p -> Printf.sprintf "/proc/%d/status" p
  in
  match read file with
  | None -> None
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> Option.map (fun k -> k /. 1024.0) (float_of_string_opt kb)
             | [] -> None)
           | _ -> None)
