#include <sys/resource.h>
#include <caml/mlvalues.h>

/* Peak resident set size of this process, in KiB (Linux ru_maxrss). */
value perfbench_maxrss_kib(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
