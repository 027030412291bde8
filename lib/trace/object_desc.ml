(* Program-object descriptors: the [ObjectDesc] argument of the paper's
   InstallMonitorEvent/RemoveMonitorEvent (§6). The simulator uses them to
   decide which write monitors belong to the monitor session under study.

   - [Local]: one instantiation of an automatic variable (parameters
     included); [inst] is the activation number of the enclosing function,
     so recursion produces distinct descriptors that the session layer
     groups ("all instantiations of the variable belong to the same monitor
     session").
   - [Local_static]: a function-scoped static. Not automatic (excluded from
     OneLocalAuto) but part of AllLocalInFunc, which "includes local static
     variables" (§5).
   - [Heap]: one heap object. [context] is the dynamic function context at
     allocation time, innermost first — OneHeap keys on the allocating
     function (its head) plus [seq]; AllHeapInFunc matches any function in
     the context ("created by a function f and any other functions executing
     in the dynamic context of f"). A realloc'd object keeps its descriptor
     (footnote 4). *)

type t =
  | Local of { func : string; var : string; inst : int }
  | Local_static of { func : string; var : string }
  | Global of { var : string }
  | Heap of { context : string list; seq : int }

let site = function
  | Heap { context = f :: _; _ } -> Some f
  | Heap { context = []; _ } | Local _ | Local_static _ | Global _ -> None

let equal (a : t) (b : t) = a = b

let pp ppf = function
  | Local { func; var; inst } -> Format.fprintf ppf "local:%s.%s#%d" func var inst
  | Local_static { func; var } -> Format.fprintf ppf "static:%s.%s" func var
  | Global { var } -> Format.fprintf ppf "global:%s" var
  | Heap { context; seq } ->
      Format.fprintf ppf "heap:%s#%d" (String.concat "<" context) seq

let to_string t = Format.asprintf "%a" pp t

(* Inverse of [pp]; the EBPB1 stream stores descriptors in this form. *)
let of_string s =
  let split_once sep str =
    match String.index_opt str sep with
    | None -> None
    | Some i ->
        Some (String.sub str 0 i, String.sub str (i + 1) (String.length str - i - 1))
  in
  match split_once ':' s with
  | Some ("local", rest) -> (
      match split_once '.' rest with
      | Some (func, rest) -> (
          match split_once '#' rest with
          | Some (var, inst) ->
              Option.map
                (fun inst -> Local { func; var; inst })
                (int_of_string_opt inst)
          | None -> None)
      | None -> None)
  | Some ("static", rest) -> (
      match split_once '.' rest with
      | Some (func, var) -> Some (Local_static { func; var })
      | None -> None)
  | Some ("global", var) -> Some (Global { var })
  | Some ("heap", rest) -> (
      match split_once '#' rest with
      | Some (context, seq) ->
          Option.map
            (fun seq -> Heap { context = String.split_on_char '<' context; seq })
            (int_of_string_opt seq)
      | None -> None)
  | Some _ | None -> None
