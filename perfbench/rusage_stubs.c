/* Child-process accounting the OCaml Unix library does not expose:
   wait4(2) with the child's resource usage, and the clock-tick rate
   that /proc/<pid>/stat times are counted in. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 : int -> int * float * float * int
   Blocks until child [pid] ends. Returns its exit code (or minus the
   signal that killed it), user and system CPU seconds, and peak
   resident set size in KiB. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  for (;;) {
    caml_enter_blocking_section();
    r = wait4((pid_t)Int_val(vpid), &status, 0, &ru);
    err = errno;
    caml_leave_blocking_section();
    if (r >= 0 || err != EINTR) break;
    /* run OCaml signal handlers (they may exit) before waiting again */
    caml_process_pending_actions();
  }
  if (r < 0) caml_failwith(strerror(err));
  int code = WIFEXITED(status)     ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? -WTERMSIG(status)
                                   : -255;
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1,
              caml_copy_double((double)ru.ru_utime.tv_sec +
                               (double)ru.ru_utime.tv_usec / 1e6));
  Store_field(res, 2,
              caml_copy_double((double)ru.ru_stime.tv_sec +
                               (double)ru.ru_stime.tv_usec / 1e6));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
