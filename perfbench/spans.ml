(* In-memory spans recorded by the benchmark around each call into a
   layer: name, layer, start, end, parent and request id. Nothing is
   recorded while [enabled] is false. *)

type span = {
  id : int;
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
  parent : int;  (** -1 for a root span *)
  req : int;
}

type t = {
  mutable enabled : bool;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
  mu : Mutex.t;
}

let create () = { enabled = false; next = 0; spans = []; mu = Mutex.create () }

let fresh_id t =
  Mutex.protect t.mu (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

(* [f] receives the new span's id, to pass as [parent] to nested calls. *)
let record t ~name ~layer ?(parent = -1) ?(req = -1) f =
  if not t.enabled then f (-1)
  else begin
    let id = fresh_id t in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let sp = { id; name; layer; t0; t1 = Unix.gettimeofday (); parent; req } in
      Mutex.protect t.mu (fun () -> t.spans <- sp :: t.spans)
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let spans t = List.rev t.spans

(* Total length of the union of the intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of it that its child
   spans cover (overlapping children count once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun sp -> if sp.parent >= 0 then Hashtbl.add children sp.parent (sp.t0, sp.t1))
    spans;
  List.map
    (fun sp ->
      let kids = Hashtbl.find_all children sp.id in
      (sp, sp.t1 -. sp.t0 -. covered ~lo:sp.t0 ~hi:sp.t1 kids))
    spans

(* Self time summed per layer, in seconds, sorted by layer name. *)
let self_by_layer spans =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (sp, self) ->
      Hashtbl.replace acc sp.layer
        (self +. Option.value ~default:0. (Hashtbl.find_opt acc sp.layer)))
    (self_times spans);
  Hashtbl.fold (fun l s xs -> (l, s) :: xs) acc [] |> List.sort compare
