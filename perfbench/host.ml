(* The host's speed, measured with a fixed piece of OCaml work that calls
   no code of this repository.

   The benchmark's machine is a shared VM whose speed drifts by up to
   ±25% in phases of ten seconds or more; no estimator over the runs of
   one 30 s window can remove a drift that lasts the whole window. So
   every measured set-up and run is bracketed by [calibrate] calls, and
   its time is rescaled by [reference_s] over the mean of the two
   calibrations around it: the time it would have taken on a host on
   which the calibration takes [reference_s]. The calibration allocates
   and walks the same kinds of structure the engine does (balanced maps,
   hash tables of lists, sorted arrays, strings), because a slowdown of
   the host shows in allocation and cache misses first: a calibration
   that only chased pointers through a preallocated array tracked the
   drift far worse (LEDGER.md, Noise). *)

module IM = Map.Make (Int)

(* About 50 ms on the machine LEDGER.md describes; the value only sets
   the scale of the rescaled times. *)
let reference_s = 0.05

let work () =
  let st = Random.State.make [| 42 |] in
  let m = ref IM.empty in
  for i = 1 to 20_000 do
    m := IM.add (Random.State.int st 100_000) i !m
  done;
  let h = Hashtbl.create 1024 in
  for i = 1 to 30_000 do
    let k = Random.State.int st 25_000 in
    let prev = Option.value ~default:[] (Hashtbl.find_opt h k) in
    Hashtbl.replace h k ((i, string_of_int k) :: prev)
  done;
  let acc = ref 0 in
  Hashtbl.iter
    (fun _ l -> List.iter (fun (i, s) -> acc := !acc + i + String.length s) l)
    h;
  let a =
    Array.init 20_000 (fun _ ->
        (Random.State.int st 1000, Random.State.int st 1000))
  in
  Array.sort compare a;
  let l = List.sort Int.compare (List.init 10_000 (fun i -> (i * 7919) mod 10_007)) in
  IM.cardinal !m + !acc + fst a.(0) + List.hd l

(* The wall time of one calibration, in seconds, after a full major
   collection so that it does not pay for earlier garbage. *)
let calibrate () =
  Gc.compact ();
  let t0 = Measure.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  float_of_int (Measure.now_ns () - t0) *. 1e-9
