(* In-memory spans recorded at the benchmark's own layer boundaries
   (around its calls into the daemon's wire protocol and into the
   public library API), written out at exit as Chrome trace-event JSON,
   which Perfetto and chrome://tracing open directly.

   A span has a name, start and end (seconds since the recorder's
   epoch), the id of the span that caused it (0 for a root), the id of
   the request it belongs to, and a lane: one lane per client
   connection, so a lane's spans nest properly.  With recording off,
   every call is a no-op and [fresh] returns 0. *)

open Hsp_service

type span = {
  id : int;
  name : string;
  parent : int;
  rid : int;
  lane : int;
  t0 : float;
  t1 : float;
}

type t = { on : bool; epoch : float; mutable next : int; mutable spans : span list }

let create ~on = { on; epoch = Unix.gettimeofday (); next = 1; spans = [] }
let on t = t.on

let fresh t =
  if not t.on then 0
  else begin
    let id = t.next in
    t.next <- id + 1;
    id
  end

(* [add t ~id name t0 t1] records a span under an id from [fresh];
   [t0]/[t1] are absolute [Unix.gettimeofday] readings. *)
let add t ?(parent = 0) ?(rid = 0) ?(lane = 0) ~id name t0 t1 =
  if t.on then
    t.spans <- { id; name; parent; rid; lane; t0 = t0 -. t.epoch; t1 = t1 -. t.epoch } :: t.spans

(* Time [f ()] as a span with a fresh id. *)
let wrap t ?parent ?rid ?lane name f =
  if not t.on then f ()
  else begin
    let id = fresh t in
    let t0 = Unix.gettimeofday () in
    let v = f () in
    add t ?parent ?rid ?lane ~id name t0 (Unix.gettimeofday ());
    v
  end

(* Self time: a span's duration minus the part of it its children
   cover (children of one parent may overlap; their union counts
   once).  Returned per span name as (total self seconds, span count),
   sorted by descending self time. *)
let self_times t =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) t.spans;
  let covered s =
    let ivs =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> (Float.max c.t0 s.t0, Float.min c.t1 s.t1))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    in
    let total, last =
      List.fold_left
        (fun (acc, (ca, cb)) (a, b) ->
          if a > cb then (acc +. (cb -. ca), (a, b)) else (acc, (ca, Float.max cb b)))
        (0., (0., 0.)) ivs
    in
    total +. (snd last -. fst last)
  in
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. covered s in
      let tot, n = Option.value ~default:(0., 0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (tot +. self, n + 1))
    t.spans;
  Hashtbl.fold (fun name (tot, n) l -> (name, tot, n) :: l) acc []
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

let us x = Jsonv.Float (Float.round (x *. 1e7) /. 10.)

(* Chrome trace-event format: complete ("X") events in microseconds. *)
let to_json t ~metadata =
  let event s =
    Jsonv.Obj
      [
        ("name", Jsonv.String s.name);
        ("cat", Jsonv.String (List.hd (String.split_on_char '.' s.name)));
        ("ph", Jsonv.String "X");
        ("ts", us s.t0);
        ("dur", us (s.t1 -. s.t0));
        ("pid", Jsonv.Int 1);
        ("tid", Jsonv.Int s.lane);
        ( "args",
          Jsonv.Obj
            [ ("id", Jsonv.Int s.id); ("parent", Jsonv.Int s.parent); ("rid", Jsonv.Int s.rid) ] );
      ]
  in
  Jsonv.Obj
    [
      ("traceEvents", Jsonv.List (List.rev_map event t.spans));
      ("displayTimeUnit", Jsonv.String "ms");
      ("metadata", metadata);
    ]

let write t ~path ~metadata =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Jsonv.to_string (to_json t ~metadata)))
