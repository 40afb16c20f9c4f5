(* Shared helpers for the test suites. *)

open Tsim
open Tsim.Ids

(* A machine whose processes run arbitrary entry programs (trivial exit
   sections, one passage, no exclusion checking) over [nvars] fresh
   variables. [owner i] optionally assigns DSM ownership to variable i. *)
let machine ?(model = Config.Dsm) ?owner ?(rmw_drains = true) ~n ~nvars entry
    =
  let layout = Layout.create () in
  let vars =
    Array.init nvars (fun i ->
        let o = match owner with None -> None | Some f -> f i in
        Layout.var layout ?owner:o (Printf.sprintf "x%d" i))
  in
  let cfg =
    Config.make ~model ~max_passages:1 ~rmw_drains ~check_exclusion:false ~n
      ~layout
      ~entry:(fun p -> entry vars p)
      ~exit_section:(fun _ -> Prog.unit)
      ()
  in
  (Machine.create cfg, vars, cfg)

(* Step process [p] until its pending event is [P_cs] (entry finished) or it
   runs out of fuel. *)
let run_entry ?(fuel = 100_000) m p =
  let rec go fuel =
    if fuel <= 0 then failwith "run_entry: out of fuel"
    else
      match Machine.pending m p with
      | Machine.P_cs | Machine.P_done -> ()
      | _ ->
          ignore (Machine.step m p);
          go (fuel - 1)
  in
  go fuel

(* Drive process [p] through its full passage. *)
let run_passage ?(fuel = 100_000) m p =
  assert (Machine.run_until_passages ~fuel m p ~target:(Machine.passages m p + 1))

let find_events m pred =
  Vec.fold
    (fun acc e -> if pred e then e :: acc else acc)
    [] (Machine.trace m)
  |> List.rev

let count_events m pred = List.length (find_events m pred)

let pidset xs = List.fold_left (fun s p -> Pidset.add p s) Pidset.empty xs

(* The two step paths (Config.compiled_steps): an untraced machine over
   declared-pure programs steps compiled. Declaring the same programs
   impure is always sound and sends it through the interpreter, so
   [with_path `Interpreted] is the interpreter side of every step-path
   differential in the suites. [`Compiled] turns trace recording off
   (searches do that themselves) and keeps purity as declared: an impure
   configuration interprets on both sides. *)
type path = [ `Interpreted | `Compiled ]

let path_name : path -> string = function
  | `Interpreted -> "interpreted"
  | `Compiled -> "compiled"

let with_path (path : path) cfg =
  match path with
  | `Interpreted -> { cfg with Config.pure_programs = false }
  | `Compiled -> { cfg with Config.record_trace = false }
