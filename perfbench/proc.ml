(* Resource usage of a process as Linux reports it in /proc: CPU time
   (utime + stime) and peak resident set size (VmHWM). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* USER_HZ: the unit of the utime/stime fields of /proc/<pid>/stat. *)
let clock_ticks_per_s = 100.

(* Fields 14 and 15 of /proc/<pid>/stat; the command name (field 2) may
   contain spaces, so fields are counted after its closing paren. *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* rest starts at field 3 (state), so field k is rest.(k - 3) *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clock_ticks_per_s

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let status_kb pid key =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.equal (String.sub line 0 i) key ->
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          (* "123456 kB" *)
          Scanf.sscanf_opt v "%d" Fun.id
      | _ -> None)
    lines

let peak_rss_mb pid =
  match status_kb pid "VmHWM" with Some kb -> float_of_int kb /. 1024. | None -> Float.nan
